//! Certain-region deduction (the `CompCRegion` role of \[20\] plus the
//! greedy `GRegion` baseline of Sect. 6, Exp-1(1)).
//!
//! Finding a minimum-`Z` certain region is NP-complete and cannot be
//! approximated within `c·log n` (Theorems 12, 17), so the deduction is
//! heuristic, built on schema-level closure:
//!
//! * [`gregion`] — the paper's greedy baseline: repeatedly add the
//!   attribute that newly covers the most attributes.
//! * [`comp_cregion`] — seed with the attributes no rule can fix, run a
//!   bounded exact search over small completions (falling back to
//!   greedy), then locally minimize. Its `Z` is never larger than the
//!   greedy one.
//!
//! Rules with constant pattern cells only fire on tuples carrying those
//! constants, so region derivation enumerates *modes* — assignments of
//! pattern attributes to pattern constants (e.g. `type = 2` vs
//! `type = 1` in Example 9) — and derives one candidate region per mode.
//! The rules guaranteed to fire in a mode are a subset of `Σ`, computed
//! once per mode; both deductions close over that subset and take the
//! greedy completion, the local minimisation and the smallest-subset
//! search from [`crate::closure`](mod@crate::closure), which suggestion
//! generation shares. [`RegionCatalog`] ranks all derived regions by a
//! quality metric; the framework seeds interaction with the best one
//! (CRHQ) and the experiments also exercise the median (CRMQ).

use std::convert::Infallible;
use std::fmt;

use certainfix_relation::{
    AttrId, AttrSet, MasterIndex, PatternTuple, PatternValue, Schema, Tableau, Tuple, Value,
};
use certainfix_rules::RuleSet;

use crate::closure::{closure_over, complete, minimise, smallest_subset, ClosureTrace};
use crate::error::AnalysisError;
use crate::region::Region;

/// Maximum number of pattern-constant modes enumerated.
const MAX_MODES: usize = 64;
/// Exact-search limit: number of candidate attributes.
const EXACT_MAX_CANDIDATES: usize = 24;
/// Exact-search limit: subset size.
const EXACT_MAX_K: usize = 4;

/// A mode: pattern attributes pinned to constants. Attributes absent
/// from the map are unconstrained.
type Mode = Vec<(AttrId, Value)>;

/// The rules guaranteed to fire in `mode`, ascending: every pattern
/// cell is matched by the mode's constant on its attribute.
fn enabled(rules: &RuleSet, mode: &Mode) -> Vec<usize> {
    rules
        .iter()
        .filter(|(_, rule)| {
            rule.lhs_p()
                .iter()
                .zip(rule.pattern().cells())
                .all(|(&a, cell)| match mode.iter().find(|(ma, _)| *ma == a) {
                    Some((_, v)) => cell.matches(v),
                    // unpinned pattern attribute: the rule is not
                    // guaranteed to fire for every marked tuple
                    None => cell.is_wildcard(),
                })
        })
        .map(|(i, _)| i)
        .collect()
}

/// The paper's greedy baseline (Sect. 6, "GRegion"): at each stage
/// "choose an attribute which may fix the largest number of uncovered
/// attributes". The gain is *one-step* — the number of uncovered
/// attributes some rule fixes once `a` is added — without transitive
/// lookahead; that myopia is exactly why `GRegion` overshoots where
/// `CompCRegion` does not (Exp-1(1)).
pub fn gregion(rules: &RuleSet) -> Vec<AttrId> {
    gregion_in_mode(rules, &Vec::new())
}

/// `gregion` restricted to rules guaranteed to fire in `mode`.
pub fn gregion_in_mode(rules: &RuleSet, mode: &Mode) -> Vec<AttrId> {
    gregion_over(rules, mode, &enabled(rules, mode))
}

fn gregion_over(rules: &RuleSet, mode: &Mode, enabled: &[usize]) -> Vec<AttrId> {
    let full = AttrSet::full(rules.r_schema().len());
    let close = |z| closure_over(rules, enabled.iter().copied(), z).covered;
    let mut z: AttrSet = mode.iter().map(|&(a, _)| a).collect();
    let mut covered = close(z);
    while covered != full {
        // one-step gain: rules whose premise becomes satisfied by adding
        // `a`, counting their uncovered targets. The scan reads all of
        // Σ, not the mode's subset: restricting it changes which
        // attribute wins and so moves the median region (CRMQ).
        let mut best: Option<(AttrId, usize)> = None;
        for a in (full - covered).iter() {
            let with_a = covered | AttrSet::singleton(a);
            let gain: usize = rules
                .iter()
                .filter(|(_, rule)| {
                    !covered.contains(rule.rhs())
                        && rule.rhs() != a
                        && rule.premise().is_subset(&with_a)
                })
                .map(|(_, rule)| rule.rhs())
                .collect::<AttrSet>()
                .len();
            if best.map(|(_, g)| gain > g).unwrap_or(true) {
                best = Some((a, gain));
            }
        }
        let (pick, _) = best.expect("some attribute is uncovered");
        z.insert(pick);
        covered = close(z);
    }
    z.to_vec()
}

/// The optimized deduction (playing the role of `CompCRegion` \[20\]):
/// seed with must-have attributes, search small completions exactly,
/// fall back to greedy, then locally minimize. The result always
/// satisfies `closure(Z) = R` and `|Z| ≤ |gregion(Σ)|`.
pub fn comp_cregion(rules: &RuleSet) -> Vec<AttrId> {
    comp_cregion_in_mode(rules, &Vec::new())
}

/// `comp_cregion` restricted to rules guaranteed to fire in `mode`.
pub fn comp_cregion_in_mode(rules: &RuleSet, mode: &Mode) -> Vec<AttrId> {
    comp_cregion_over(rules, mode, &enabled(rules, mode))
}

fn comp_cregion_over(rules: &RuleSet, mode: &Mode, enabled: &[usize]) -> Vec<AttrId> {
    let full = AttrSet::full(rules.r_schema().len());
    let close = |z| closure_over(rules, enabled.iter().copied(), z).covered;
    let mode_attrs: AttrSet = mode.iter().map(|&(a, _)| a).collect();

    // Must-haves: mode attributes plus attributes unfixable in this mode
    // (no enabled rule targets them).
    let fixable: AttrSet = enabled.iter().map(|&i| rules.rule(i).rhs()).collect();
    let seed = mode_attrs | (full - fixable);
    let reached = close(seed);
    let z = if reached == full {
        seed
    } else {
        // Exact search over small completions drawn from the rule
        // prerequisites the seed does not reach, smallest first; greedy
        // when there are too many candidates or nothing small works.
        let candidates = (rules.touched_attrs() - seed - reached).to_vec();
        let exact = if candidates.len() > EXACT_MAX_CANDIDATES {
            None
        } else {
            smallest_subset(&candidates, EXACT_MAX_K, |picked| {
                Ok(close(seed | picked) == full)
            })
            .unwrap_or_else(|never: Infallible| match never {})
        };
        seed | exact.unwrap_or_else(|| complete(rules, enabled, seed))
    };
    // Local minimization: drop any attribute whose removal keeps
    // closure(Z) = R (mode attributes stay).
    (mode_attrs | minimise(rules, enabled, mode_attrs, z - mode_attrs)).to_vec()
}

/// A deduced candidate certain region: `Z`, the mode's pattern
/// constants, the rules it relies on, and a quality score.
#[derive(Clone, Debug)]
pub struct DerivedRegion {
    z: Vec<AttrId>,
    z_set: AttrSet,
    mode: PatternTuple,
    fired: Vec<usize>,
    quality: f64,
}

impl DerivedRegion {
    /// The attribute list `Z`.
    pub fn z(&self) -> &[AttrId] {
        &self.z
    }

    /// `Z` as a set.
    pub fn z_set(&self) -> AttrSet {
        self.z_set
    }

    /// The mode pattern (constants on pattern attributes).
    pub fn mode(&self) -> &PatternTuple {
        &self.mode
    }

    /// Quality score in `[0, 1]`; higher is better (smaller `Z`).
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// Does `t` satisfy the mode's pattern constants? (The full
    /// certainty test for `t` is the runtime chase; this is the cheap
    /// syntactic gate.)
    pub fn mode_matches(&self, t: &Tuple) -> bool {
        self.mode.matches(t)
    }

    /// Materialize an explicit region `(Z, Tc)` with up to `limit`
    /// pattern rows instantiated from master tuples, in the style of
    /// Example 9: key attributes take the master's (λ-mapped) values,
    /// mode attributes take their constants, everything else `_`.
    pub fn to_region(
        &self,
        rules: &RuleSet,
        master: &MasterIndex,
        limit: usize,
    ) -> Result<Region, AnalysisError> {
        let mut rows = Vec::new();
        for tm in master.relation().iter().take(limit) {
            let mut cells: Vec<(AttrId, PatternValue)> = Vec::new();
            for &a in &self.z {
                if let Some(cell) = self.mode.cell(a) {
                    cells.push((a, cell.clone()));
                    continue;
                }
                // first firing rule using `a` as a key gives the master
                // column to draw the constant from
                let mapped = self
                    .fired
                    .iter()
                    .find_map(|&i| rules.rule(i).master_attr_for(a));
                if let Some(ma) = mapped {
                    let v = tm.get(ma);
                    if !v.is_null() {
                        cells.push((a, PatternValue::Const(*v)));
                    }
                }
                // otherwise: implicit wildcard
            }
            rows.push(PatternTuple::new(cells));
        }
        rows.dedup();
        Region::new(self.z.clone(), Tableau::new(rows))
    }

    /// Render against a schema.
    pub fn render(&self, schema: &Schema) -> String {
        format!(
            "Z = {} mode {} (quality {:.3})",
            schema.render_attrs(&self.z),
            self.mode.render(schema),
            self.quality
        )
    }
}

impl fmt::Display for DerivedRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "|Z| = {} (quality {:.3})", self.z.len(), self.quality)
    }
}

/// All regions deduced from `(Σ, Dm)`, ranked by quality (descending).
#[derive(Clone, Debug)]
pub struct RegionCatalog {
    regions: Vec<DerivedRegion>,
}

impl RegionCatalog {
    /// Deduce the catalog: enumerate pattern modes, derive the optimized
    /// and the greedy `Z` per mode, score and rank.
    pub fn build(rules: &RuleSet, _master: &MasterIndex) -> RegionCatalog {
        let r_len = rules.r_schema().len();
        let mut regions: Vec<DerivedRegion> = Vec::new();
        for mode in enumerate_modes(rules) {
            let enabled = enabled(rules, &mode);
            for z in [
                comp_cregion_over(rules, &mode, &enabled),
                gregion_over(rules, &mode, &enabled),
            ] {
                let z_set: AttrSet = z.iter().copied().collect();
                let ClosureTrace { covered, fired } =
                    closure_over(rules, enabled.iter().copied(), z_set);
                if covered != AttrSet::full(r_len) {
                    continue;
                }
                let quality = (r_len - z.len()) as f64 / r_len as f64;
                let mode_pattern = PatternTuple::new(
                    mode.iter()
                        .map(|(a, v)| (*a, PatternValue::Const(*v)))
                        .collect(),
                );
                let candidate = DerivedRegion {
                    z,
                    z_set,
                    mode: mode_pattern,
                    fired,
                    quality,
                };
                if !regions
                    .iter()
                    .any(|r| r.z_set == candidate.z_set && r.mode == candidate.mode)
                {
                    regions.push(candidate);
                }
            }
        }
        regions.sort_by(|a, b| {
            b.quality
                .partial_cmp(&a.quality)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.z.len().cmp(&b.z.len()))
                .then_with(|| a.z_set.bits().cmp(&b.z_set.bits()))
        });
        RegionCatalog { regions }
    }

    /// The highest-quality region (CRHQ), if any.
    pub fn best(&self) -> Option<&DerivedRegion> {
        self.regions.first()
    }

    /// The median-quality region (CRMQ), if any.
    pub fn median(&self) -> Option<&DerivedRegion> {
        if self.regions.is_empty() {
            None
        } else {
            self.regions.get(self.regions.len() / 2)
        }
    }

    /// All regions, best first.
    pub fn iter(&self) -> impl Iterator<Item = &DerivedRegion> {
        self.regions.iter()
    }

    /// Number of deduced regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` iff no region was deduced.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// Enumerate pattern modes: assignments of constants to the attributes
/// constrained by `Const` cells in rule patterns. Each attribute may
/// also stay unpinned. Capped at [`MAX_MODES`] (excess modes dropped,
/// all-unpinned always included).
fn enumerate_modes(rules: &RuleSet) -> Vec<Mode> {
    // attr -> distinct constants from Const cells
    let mut attrs: Vec<(AttrId, Vec<Value>)> = Vec::new();
    for (_, rule) in rules.iter() {
        for (&a, cell) in rule.lhs_p().iter().zip(rule.pattern().cells()) {
            if let PatternValue::Const(v) = cell {
                match attrs.iter_mut().find(|(x, _)| *x == a) {
                    Some((_, vs)) => {
                        if !vs.contains(v) {
                            vs.push(*v);
                        }
                    }
                    None => attrs.push((a, vec![*v])),
                }
            }
        }
    }
    let mut modes: Vec<Mode> = vec![Vec::new()];
    for (a, vs) in attrs {
        let mut next = Vec::new();
        for mode in &modes {
            // unpinned
            next.push(mode.clone());
            for v in &vs {
                let mut m = mode.clone();
                m.push((a, *v));
                next.push(m);
            }
            if next.len() >= MAX_MODES {
                break;
            }
        }
        modes = next;
        modes.truncate(MAX_MODES);
    }
    modes
}

#[cfg(test)]
mod tests {
    use super::*;
    use certainfix_relation::{tuple, Relation};
    use certainfix_rules::parse_rules;
    use std::sync::Arc;

    fn fig1() -> (Arc<Schema>, RuleSet, MasterIndex) {
        let r = Schema::new(
            "R",
            [
                "fn", "ln", "AC", "phn", "type", "str", "city", "zip", "item",
            ],
        )
        .unwrap();
        let rm = Schema::new(
            "Rm",
            [
                "FN", "LN", "AC", "Hphn", "Mphn", "str", "city", "zip", "DOB", "gender",
            ],
        )
        .unwrap();
        let rules = parse_rules(
            r#"
            phi1: match zip ~ zip set AC := AC, str := str, city := city
            phi2: match phn ~ Mphn set fn := FN, ln := LN when type = 2
            phi3: match AC ~ AC, phn ~ Hphn set str := str, city := city, zip := zip when type = 1, AC != '0800'
            phi4: match AC ~ AC set city := city when AC = '0800'
            "#,
            &r,
            &rm,
        )
        .unwrap();
        let master = Relation::new(
            rm,
            vec![
                tuple![
                    "Robert",
                    "Brady",
                    "131",
                    "6884563",
                    "079172485",
                    "51 Elm Row",
                    "Edi",
                    "EH7 4AH",
                    "11/11/55",
                    "M"
                ],
                tuple![
                    "Mark",
                    "Smith",
                    "020",
                    "6884563",
                    "075568485",
                    "20 Baker St.",
                    "Lnd",
                    "NW1 6XE",
                    "25/12/67",
                    "M"
                ],
            ],
        )
        .unwrap();
        (r.clone(), rules, MasterIndex::new(Arc::new(master)))
    }

    fn names(r: &Schema, ids: &[AttrId]) -> Vec<String> {
        ids.iter().map(|&a| r.attr_name(a).to_string()).collect()
    }

    #[test]
    fn example9_mode_type2_region() {
        // In mode type = 2, the minimal certain Z is
        // {zip, phn, type, item} (Z_zmi of Example 9).
        let (r, rules, _m) = fig1();
        let mode: Mode = vec![(r.attr("type").unwrap(), Value::int(2))];
        let z = comp_cregion_in_mode(&rules, &mode);
        assert_eq!(names(&r, &z), vec!["phn", "type", "zip", "item"]);
    }

    #[test]
    fn example9_mode_type1_region() {
        // In mode type = 1 (with AC unpinned the ϕ3 family is not
        // guaranteed), fn/ln are unfixable: Z_L of Example 9 adds them.
        let (r, rules, _m) = fig1();
        let mode: Mode = vec![(r.attr("type").unwrap(), Value::int(1))];
        let z = comp_cregion_in_mode(&rules, &mode);
        let z_names = names(&r, &z);
        // fn, ln unfixable in this mode (ϕ2 needs type = 2)
        assert!(z_names.contains(&"fn".to_string()));
        assert!(z_names.contains(&"ln".to_string()));
        assert!(z_names.contains(&"item".to_string()));
        assert!(z_names.contains(&"type".to_string()));
    }

    #[test]
    fn comp_cregion_never_larger_than_gregion() {
        let (_r, rules, _m) = fig1();
        for mode in enumerate_modes(&rules) {
            let opt = comp_cregion_in_mode(&rules, &mode);
            let greedy = gregion_in_mode(&rules, &mode);
            assert!(
                opt.len() <= greedy.len(),
                "mode {mode:?}: {opt:?} vs {greedy:?}"
            );
        }
    }

    #[test]
    fn closures_reach_full_for_derived_z() {
        let (r, rules, _m) = fig1();
        for mode in enumerate_modes(&rules) {
            let z: AttrSet = comp_cregion_in_mode(&rules, &mode).into_iter().collect();
            let covered = closure_over(&rules, enabled(&rules, &mode).into_iter(), z).covered;
            assert_eq!(covered, AttrSet::full(r.len()));
        }
    }

    #[test]
    fn mode_enumeration_contains_paper_modes() {
        let (r, rules, _m) = fig1();
        let modes = enumerate_modes(&rules);
        let ty = r.attr("type").unwrap();
        assert!(modes.iter().any(Vec::is_empty));
        assert!(modes.iter().any(|m| m.contains(&(ty, Value::int(2)))));
        assert!(modes.iter().any(|m| m.contains(&(ty, Value::int(1)))));
        // AC = 0800 from ϕ4 is a mode constant too
        let ac = r.attr("AC").unwrap();
        assert!(modes.iter().any(|m| m.contains(&(ac, Value::str("0800")))));
    }

    #[test]
    fn catalog_ranks_by_quality() {
        let (r, rules, master) = fig1();
        let catalog = RegionCatalog::build(&rules, &master);
        assert!(!catalog.is_empty());
        let best = catalog.best().unwrap();
        // CRHQ is the smallest-Z region: {phn, type, zip, item}
        assert_eq!(best.z().len(), 4, "best: {}", best.render(&r));
        let median = catalog.median().unwrap();
        assert!(median.quality() <= best.quality());
        // qualities are non-increasing
        let qs: Vec<f64> = catalog.iter().map(|r| r.quality()).collect();
        assert!(qs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn materialized_region_matches_example9() {
        let (r, rules, master) = fig1();
        let ty = r.attr("type").unwrap();
        let catalog = RegionCatalog::build(&rules, &master);
        let best = catalog
            .iter()
            .find(|reg| {
                reg.mode().cell(ty) == Some(&PatternValue::Const(Value::int(2)))
                    && reg.z().len() == 4
            })
            .expect("type=2 region derived");
        let region = best.to_region(&rules, &master, 100).unwrap();
        assert_eq!(region.tableau().len(), 2, "one row per master tuple");
        // t1 corrected (zip EH7 4AH, phn 079172485, type 2) is marked
        let t1 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            2,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        assert!(region.marks(&t1));
        // a type-1 tuple is not marked
        let t2 = tuple![
            "Bob",
            "Brady",
            "020",
            "079172485",
            1,
            "501 Elm St.",
            "Edi",
            "EH7 4AH",
            "CD"
        ];
        assert!(!region.marks(&t2));
    }

    #[test]
    fn mode_matching_gate() {
        let (r, rules, master) = fig1();
        let catalog = RegionCatalog::build(&rules, &master);
        let ty = r.attr("type").unwrap();
        let region = catalog
            .iter()
            .find(|reg| reg.mode().cell(ty) == Some(&PatternValue::Const(Value::int(2))))
            .unwrap();
        let mut t = tuple!["a", "b", "c", "d", 2, "e", "f", "g", "h"];
        assert!(region.mode_matches(&t));
        t.set(ty, Value::int(1));
        assert!(!region.mode_matches(&t));
    }

    #[test]
    fn exact_completion_beats_greedy_on_pairwise_dependency() {
        // Greedy picks singletons with gain 1 each; the optimum is the
        // pair {a, b} jointly enabling one rule that covers c..f.
        let r = Schema::new("R", ["a", "b", "c", "d", "e", "f"]).unwrap();
        let rm = r.clone();
        let rules = parse_rules(
            r#"
            r1: match a ~ a, b ~ b set c := c, d := d, e := e, f := f
            r2: match c ~ c set d := d
            "#,
            &r,
            &rm,
        )
        .unwrap();
        let opt = comp_cregion(&rules);
        assert_eq!(names(&r, &opt), vec!["a", "b"]);
        let greedy = gregion(&rules);
        assert!(opt.len() <= greedy.len());
    }
}
