//! The WIDEKEY workload: composite keys wider than the plan's slot
//! table.
//!
//! [`RulePlan`](certainfix_rules::RulePlan) preallocates `2^|X|`
//! sub-key index slots per rule, capped at `|X| ≤ 6`; rules with wider
//! keys serve partial-mask probes through the shared master cache and
//! count a `plan_fallbacks` tick per probe. The paper's workloads never
//! exercise that branch — HOSP's widest rule keys 5 attributes and
//! DBLP's widest (φ7) also stays under the cap — so this synthetic
//! workload exists purely to keep the fallback path honest end to end:
//! a device registry whose location key spans **seven** attributes
//! (`site, region, zone, cell, rack, shelf, slot`).
//!
//! Entities decompose their id into the location key mixed-radix
//! (base 3 on the first six parts), so prefixes are heavily shared
//! across entities while the full 7-tuple stays unique, keeping every
//! rule key-consistent.
//!
//! [`RulePlan`]: certainfix_rules::RulePlan

use std::sync::Arc;

use certainfix_relation::{MasterIndex, Relation, Schema, Tuple, Value};
use certainfix_rules::{parse_rules, RuleSet};
use rand::rngs::SmallRng;
use rand::RngExt;

use crate::dirty::Workload;

/// The 11 attributes of the device registry.
pub const WIDEKEY_ATTRS: [&str; 11] = [
    "site", "region", "zone", "cell", "rack", "shelf", "slot", "steward", "device", "owner",
    "status",
];

/// The 6 editing rules of the WIDEKEY workload. `w` keys all seven
/// location attributes (two rules after expansion — both past the
/// plan's `MAX_SUB_KEY_BITS` cap); `p` keys a five-attribute *prefix*
/// of the location; `r` fixes the last two location digits from the
/// device serial, which makes `{site..rack, device, status}` the
/// smallest certain region — so the best-region suggestion validates
/// the wide key only *partially*, and whenever `r` cannot complete it
/// (a fresh or retired device) the next suggest round probes `w` with
/// a partial mask: exactly the probe the fallback path serves; `n` is
/// a narrow control rule that stays on the preallocated slot path.
pub const WIDEKEY_RULES: &str = r#"
    # w: the full 7-part location identifies the device and its owner
    w: match site ~ site, region ~ region, zone ~ zone, cell ~ cell, rack ~ rack, shelf ~ shelf, slot ~ slot set device := device, owner := owner
    # p: the rack-level location prefix determines its steward
    p: match site ~ site, region ~ region, zone ~ zone, cell ~ cell, rack ~ rack set steward := steward
    # r: an active device's serial pins the fine location digits
    r: match device ~ device set shelf := shelf, slot := slot when status = 'active'
    # n: an active device's serial determines its owner
    n: match device ~ device set owner := owner when status = 'active'
"#;

/// Entities `e ≥ FRESH_BASE` stand for devices absent from the master.
const FRESH_BASE: u64 = 10_000_000;

/// Entity generator + master relation for the WIDEKEY workload.
pub struct WideKey {
    schema: Arc<Schema>,
    rules: RuleSet,
    master: Arc<Relation>,
    index: MasterIndex,
    master_size: u64,
}

impl WideKey {
    /// Generate a WIDEKEY workload with `master_size` master rows.
    pub fn generate(master_size: usize) -> WideKey {
        let schema = Schema::new("WIDEKEY", WIDEKEY_ATTRS).expect("static schema is valid");
        let rules = parse_rules(WIDEKEY_RULES, &schema, &schema).expect("static rules are valid");
        debug_assert_eq!(rules.len(), 6);
        let mut rel = Relation::empty(schema.clone());
        for e in 0..master_size as u64 {
            rel.push(Self::entity(&schema, e)).expect("arity ok");
        }
        let master = Arc::new(rel);
        WideKey {
            schema,
            rules,
            index: MasterIndex::new(master.clone()),
            master,
            master_size: master_size as u64,
        }
    }

    /// The registry row for device `e`. The location key is the
    /// mixed-radix decomposition of `e` (base 3 per level, open-ended
    /// `slot`), so any two distinct entities differ somewhere in the
    /// 7-tuple while sharing long prefixes with their neighbours.
    fn entity(schema: &Schema, e: u64) -> Tuple {
        let mut t = Tuple::nulls(schema.len());
        let mut set = |name: &str, v: Value| {
            t.set(schema.attr(name).unwrap(), v);
        };
        let mut rest = e;
        for name in ["site", "region", "zone", "cell", "rack", "shelf"] {
            set(name, Value::str(format!("{name}-{}", rest % 3)));
            rest /= 3;
        }
        set("slot", Value::int(rest as i64));
        // the rack-level prefix is the five low digits, i.e. e mod 3^5
        set("steward", Value::str(format!("steward-{}", e % 243)));
        set("device", Value::str(format!("dev-{e:08}")));
        set("owner", Value::str(format!("team-{}", e % 17)));
        set(
            "status",
            Value::str(if e % 5 == 4 { "retired" } else { "active" }),
        );
        t
    }
}

impl Workload for WideKey {
    fn name(&self) -> &'static str {
        "widekey"
    }

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn rules(&self) -> &RuleSet {
        &self.rules
    }

    fn master(&self) -> &Arc<Relation> {
        &self.master
    }

    fn master_index(&self) -> &MasterIndex {
        &self.index
    }

    fn fresh_clean(&self, rng: &mut SmallRng) -> Tuple {
        let e = FRESH_BASE + self.master_size + rng.random_range(0..1_000_000u64);
        WideKey::entity(&self.schema, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schema_and_rules_parse() {
        let wk = WideKey::generate(100);
        assert_eq!(wk.schema().len(), 11);
        assert_eq!(wk.rules().len(), 6);
        assert_eq!(wk.master().len(), 100);
        let wide: Vec<_> = wk
            .rules()
            .iter()
            .filter(|(_, r)| r.lhs().len() == 7)
            .collect();
        assert_eq!(wide.len(), 2, "both expansions of `w` key 7 attributes");
    }

    #[test]
    fn master_is_key_consistent() {
        let wk = WideKey::generate(300);
        for (_, rule) in wk.rules().iter() {
            let idx = wk.master_index().index_for(rule.lhs_m());
            for tm in wk.master().iter() {
                let probe = tm.project(rule.lhs_m());
                let rows = idx.lookup(&probe);
                let mut vals: Vec<&Value> = rows
                    .iter()
                    .map(|&i| wk.master().tuple(i as usize).get(rule.rhs_m()))
                    .collect();
                vals.dedup();
                assert!(
                    vals.len() <= 1,
                    "rule {} key {probe:?} must be functional",
                    rule.name()
                );
            }
        }
    }

    /// The mixed-radix key shares prefixes: with 300 devices, the
    /// first six levels cycle through only three values each, so the
    /// key columns are massively non-unique individually while the
    /// 7-tuple stays unique.
    #[test]
    fn location_prefixes_are_shared() {
        let wk = WideKey::generate(300);
        let site = wk.schema().attr("site").unwrap();
        let mut sites: Vec<&Value> = wk.master().iter().map(|t| t.get(site)).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), 3, "three sites across 300 devices");
    }

    #[test]
    fn fresh_entities_share_no_full_key() {
        let wk = WideKey::generate(100);
        let mut rng = SmallRng::seed_from_u64(7);
        let fresh = wk.fresh_clean(&mut rng);
        let slot = wk.schema().attr("slot").unwrap();
        let device = wk.schema().attr("device").unwrap();
        // the open-ended `slot` digit separates fresh ids from masters
        assert!(wk.master().iter().all(|tm| tm.get(slot) != fresh.get(slot)));
        assert!(wk
            .master()
            .iter()
            .all(|tm| tm.get(device) != fresh.get(device)));
    }
}
