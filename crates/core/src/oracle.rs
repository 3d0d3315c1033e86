//! User oracles.
//!
//! The framework interacts with a user who can *assert attributes
//! correct* (and supply the right value where the entered one was
//! wrong). The paper's experiments simulate this: "User feedback was
//! simulated by providing the correct values of the given suggestions."
//! [`SimulatedUser`] implements exactly that, with an optional
//! *compliance* knob: real users do not always answer the whole
//! suggestion at once ("the users get back with a set S of attributes
//! ... where S may not necessarily be the same as sug", Sect. 5), and
//! partial compliance is what stretches fixes over several rounds.

use certainfix_relation::{AttrId, Tuple, Value};

/// The interaction contract of Fig. 3, line 5: given the tuple's
/// current state and a suggested attribute set, return the attributes
/// the user asserts correct, each with its correct value.
pub trait UserOracle {
    /// Respond to a suggestion. The response must be non-empty whenever
    /// `suggestion` is non-empty (the monitor cannot progress on an
    /// empty assertion).
    fn assert_correct(&mut self, t: &Tuple, suggestion: &[AttrId]) -> Vec<(AttrId, Value)>;
}

/// Boxed oracles forward transparently, so heterogeneous sessions (the
/// [`service`](crate::service) multiplexer hands every stream's oracles
/// around as `Box<dyn UserOracle>`) run through the same generic
/// pipelines as concrete ones.
impl<O: UserOracle + ?Sized> UserOracle for Box<O> {
    fn assert_correct(&mut self, t: &Tuple, suggestion: &[AttrId]) -> Vec<(AttrId, Value)> {
        (**self).assert_correct(t, suggestion)
    }
}

/// Borrowed oracles forward too, so a caller's (possibly unsized)
/// oracle can be lent to the block loop as a block of one.
impl<O: UserOracle + ?Sized> UserOracle for &mut O {
    fn assert_correct(&mut self, t: &Tuple, suggestion: &[AttrId]) -> Vec<(AttrId, Value)> {
        (**self).assert_correct(t, suggestion)
    }
}

/// A ground-truth-backed simulated user.
pub struct SimulatedUser {
    clean: Tuple,
    /// Probability of answering each suggested attribute this round
    /// (at least one is always answered). 1.0 = answer everything.
    compliance: f64,
    /// Deterministic counter-based state for partial compliance.
    state: u64,
}

impl SimulatedUser {
    /// A fully compliant user who knows `clean`.
    pub fn new(clean: Tuple) -> SimulatedUser {
        SimulatedUser {
            clean,
            compliance: 1.0,
            state: 0x5EED,
        }
    }

    /// A user who answers each suggested attribute with probability
    /// `compliance` per round (deterministically seeded).
    pub fn with_compliance(clean: Tuple, compliance: f64, seed: u64) -> SimulatedUser {
        SimulatedUser {
            clean,
            compliance: compliance.clamp(0.0, 1.0),
            state: seed | 1,
        }
    }

    fn next_unit(&mut self) -> f64 {
        // splitmix64 step — deterministic, no rand dependency needed
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl UserOracle for SimulatedUser {
    fn assert_correct(&mut self, _t: &Tuple, suggestion: &[AttrId]) -> Vec<(AttrId, Value)> {
        let mut out: Vec<(AttrId, Value)> = Vec::with_capacity(suggestion.len());
        for &a in suggestion {
            if self.compliance >= 1.0 || self.next_unit() < self.compliance {
                out.push((a, *self.clean.get(a)));
            }
        }
        if out.is_empty() {
            if let Some(&a) = suggestion.first() {
                out.push((a, *self.clean.get(a)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::tuple;

    #[test]
    fn compliant_user_answers_everything_with_truth() {
        let clean = tuple!["a", "b", "c"];
        let mut u = SimulatedUser::new(clean.clone());
        let dirty = tuple!["x", "b", "z"];
        let resp = u.assert_correct(&dirty, &[AttrId(0), AttrId(2)]);
        assert_eq!(
            resp,
            vec![(AttrId(0), Value::str("a")), (AttrId(2), Value::str("c"))]
        );
    }

    #[test]
    fn partial_compliance_still_answers_something() {
        let clean = tuple!["a", "b", "c"];
        let mut u = SimulatedUser::with_compliance(clean, 0.0, 7);
        let resp = u.assert_correct(&tuple!["x", "y", "z"], &[AttrId(1), AttrId(2)]);
        assert_eq!(resp.len(), 1, "at least one attribute is asserted");
        assert_eq!(resp[0].0, AttrId(1));
    }

    #[test]
    fn partial_compliance_is_deterministic() {
        let clean = tuple!["a", "b", "c"];
        let suggestion = [AttrId(0), AttrId(1), AttrId(2)];
        let run = |seed| {
            let mut u = SimulatedUser::with_compliance(clean.clone(), 0.5, seed);
            (0..10)
                .map(|_| u.assert_correct(&clean, &suggestion).len())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn empty_suggestion_empty_answer() {
        let clean = tuple!["a"];
        let mut u = SimulatedUser::new(clean.clone());
        assert!(u.assert_correct(&clean, &[]).is_empty());
    }
}
