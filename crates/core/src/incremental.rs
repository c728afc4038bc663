//! Incremental violation maintenance under policy changes.
//!
//! `Violation_i` (Eq. 15) is a sum of independent per-policy-tuple
//! contributions, so when the house edits its policy only the contributions
//! of *changed* `(attribute, purpose)` groups need recomputing. For a policy
//! edit touching `k` of `m` groups over `n` providers, the incremental
//! update costs `O(n·k)` versus `O(n·m)` for a full re-audit.
//!
//! The auditor also maintains per-provider *violation counts* (how many
//! policy tuples currently violate), so Definition 1's `w_i` and
//! Definition 4's `default_i` stay queryable without a rescan.
//!
//! Like the batch engine, the recomputation hot loop is string-free: the
//! auditor builds on [`crate::pop::CompiledPopulation`] — the population
//! interned once into flat structure-of-arrays storage — and derives from
//! its dense preference rows an id-keyed sorted table per provider. A group
//! recompute then resolves its `(attribute, purpose)` key to ids once and
//! probes per provider with binary search plus one flat datum load — no
//! per-provider string hashing.
//!
//! The auditor is incremental along the *population* axis too:
//! [`IncrementalAuditor::apply_delta`] consumes a
//! [`crate::pop::PopulationDelta`], applies it to its compiled population
//! in place, and re-scores only the occurrences the delta's event log
//! names — `O(touched × groups)` per update instead of an `O(N)` rebuild.
//!
//! Internally every per-provider score is an **exact `u128` pre-clamp
//! sum** of its per-group contributions; the `u64` clamp of the batch
//! engine is applied only on read ([`IncrementalAuditor::score`]).
//! Retraction is therefore exact even after a score has passed
//! `u64::MAX`: subtracting a group's exact contribution from the exact
//! sum restores precisely the remaining groups' total, bit-identical to
//! a fresh rebuild.

use std::collections::HashMap;

use qpv_policy::HousePolicy;
use qpv_taxonomy::{PrivacyPoint, Purpose, ViolationGeometry};

use crate::default_model::defaults;
use crate::pop::{
    CompiledPopulation, DeltaError, DeltaEvent, DeltaOutcome, PolicyOutcome, PopulationDelta,
};
use crate::profile::ProviderProfile;
use crate::sensitivity::{AttributeSensitivities, DatumSensitivity, SensitivityModel};
use crate::severity::conf;

/// A policy "group": every tuple for one `(attribute, purpose)` pair.
type GroupKey = (String, Purpose);

/// Per-provider contribution of one group.
#[derive(Debug, Clone, Default, PartialEq)]
struct GroupContribution {
    /// Exact severity contribution per provider (indexed like the
    /// population; pre-clamp, so retraction can subtract it exactly).
    scores: Vec<u128>,
    /// How many of the group's tuples violate, per provider.
    violations: Vec<u32>,
}

/// One provider's preferences, keyed by interned `(attribute, purpose)`
/// ids. Entries are sorted for binary search; duplicate keys keep the
/// *first* stated tuple, matching `effective_point`'s find-first contract.
#[derive(Debug, Clone, Default)]
struct ProviderPrefIndex {
    entries: Vec<(u32, u32, PrivacyPoint)>,
}

impl ProviderPrefIndex {
    fn lookup(&self, attr: u32, purpose: u32) -> Option<PrivacyPoint> {
        self.entries
            .binary_search_by_key(&(attr, purpose), |e| (e.0, e.1))
            .ok()
            .map(|i| self.entries[i].2)
    }
}

/// Maintains per-provider violation state across policy updates and
/// population deltas.
#[derive(Debug, Clone)]
pub struct IncrementalAuditor {
    /// The population in flat structure-of-arrays form: interned symbol
    /// tables, dense preference rows, merged datum sensitivities, and
    /// default thresholds all live here.
    pop: CompiledPopulation,
    attributes: Vec<String>,
    sensitivity: SensitivityModel,
    policy: HousePolicy,
    groups: HashMap<GroupKey, GroupContribution>,
    /// Exact pre-clamp per-provider sums (clamped to `u64` on read).
    scores: Vec<u128>,
    violation_counts: Vec<u64>,
    /// Per-provider id-keyed preference tables (indexed like the
    /// population), keyed by the population's symbol ids.
    pref_index: Vec<ProviderPrefIndex>,
}

impl IncrementalAuditor {
    /// Build the initial state with a full pass (cost identical to one full
    /// audit).
    pub fn new(
        profiles: Vec<ProviderProfile>,
        attributes: Vec<String>,
        attribute_weights: &AttributeSensitivities,
        policy: HousePolicy,
    ) -> IncrementalAuditor {
        let mut auditor = IncrementalAuditor::build(profiles, attributes, attribute_weights);
        auditor.apply_policy(policy);
        auditor
    }

    /// [`IncrementalAuditor::new`], but starting from an already-compiled
    /// population — the rebuild path callers use when a
    /// [`CompiledPopulation`] is on hand (e.g. from a `Ppdb` scan).
    pub fn from_population(
        pop: CompiledPopulation,
        attributes: Vec<String>,
        attribute_weights: &AttributeSensitivities,
        policy: HousePolicy,
    ) -> IncrementalAuditor {
        let mut auditor = IncrementalAuditor::build_from_pop(pop, attributes, attribute_weights);
        auditor.apply_policy(policy);
        auditor
    }

    /// Compile the population and index it (one pass), with an empty policy
    /// applied.
    fn build(
        profiles: Vec<ProviderProfile>,
        attributes: Vec<String>,
        attribute_weights: &AttributeSensitivities,
    ) -> IncrementalAuditor {
        let pop = CompiledPopulation::from_profiles(&profiles);
        IncrementalAuditor::build_from_pop(pop, attributes, attribute_weights)
    }

    /// Derive the binary-searchable per-provider preference tables from the
    /// compiled population's dense rows.
    fn build_from_pop(
        pop: CompiledPopulation,
        attributes: Vec<String>,
        attribute_weights: &AttributeSensitivities,
    ) -> IncrementalAuditor {
        // The assembled model's attribute weights are exactly the house
        // weights (per-provider datums live in `pop`'s flat table instead).
        let sensitivity = SensitivityModel::from_attribute_weights(attribute_weights);
        let mut pref_index = Vec::with_capacity(pop.len());
        for i in 0..pop.len() {
            pref_index.push(index_occurrence(&pop, i));
        }
        IncrementalAuditor {
            scores: vec![0; pop.len()],
            violation_counts: vec![0; pop.len()],
            pop,
            attributes,
            sensitivity,
            policy: HousePolicy::new("empty"),
            groups: HashMap::new(),
            pref_index,
        }
    }

    /// Replace the policy, recomputing only the changed groups.
    pub fn apply_policy(&mut self, new_policy: HousePolicy) {
        let old_groups = group_points(&self.policy, &self.attributes);
        let new_groups = group_points(&new_policy, &self.attributes);

        // Groups that disappeared or changed: retract their contribution.
        // Exact: per-provider sums are `u128` pre-clamp accumulators and
        // every group's contribution was added exactly, so subtraction
        // cannot underflow — even after the clamped-on-read `u64` score
        // has pinned at `u64::MAX`.
        for (key, old_points) in &old_groups {
            let unchanged = new_groups.get(key).is_some_and(|n| n == old_points);
            if unchanged {
                continue;
            }
            if let Some(contrib) = self.groups.remove(key) {
                for (i, (s, v)) in contrib
                    .scores
                    .iter()
                    .zip(contrib.violations.iter())
                    .enumerate()
                {
                    self.scores[i] -= *s;
                    self.violation_counts[i] -= u64::from(*v);
                }
            }
        }
        // Groups that appeared or changed: compute and add.
        for (key, points) in &new_groups {
            let unchanged = old_groups.get(key).is_some_and(|o| o == points);
            if unchanged {
                continue;
            }
            let contrib = self.compute_group(key, points);
            for (i, (s, v)) in contrib
                .scores
                .iter()
                .zip(contrib.violations.iter())
                .enumerate()
            {
                self.scores[i] += *s;
                self.violation_counts[i] += u64::from(*v);
            }
            self.groups.insert(key.clone(), contrib);
        }
        self.policy = new_policy;
    }

    /// One group's per-provider contribution, on the interned fast path:
    /// the `(attribute, purpose)` key and the `Σ^a` weight resolve once,
    /// then each provider costs one binary search plus one dense datum
    /// load.
    fn compute_group(&self, key: &GroupKey, points: &[PrivacyPoint]) -> GroupContribution {
        let (attribute, purpose) = key;
        let weight = self.sensitivity.attribute_weight(attribute, purpose.name());
        let (attrs, purposes) = self.pop.symbols();
        // An attribute or purpose no provider ever mentioned is absent from
        // the population's tables: every preference is then the implicit
        // deny-all `⟨0,0,0⟩` and every datum the neutral sensitivity.
        let attr = attrs.get(attribute);
        let ids = attr.zip(purposes.get(purpose.name()));
        let len = self.pop.len();
        let mut scores = vec![0u128; len];
        let mut violations = vec![0u32; len];
        for idx in 0..len {
            let (s, v) = self.score_one(idx, weight, attr, ids, points);
            scores[idx] = s;
            violations[idx] = v;
        }
        GroupContribution { scores, violations }
    }

    /// One provider's exact contribution to one group, with the group key
    /// already resolved to symbol ids. The per-point `conf` terms are
    /// `u64`s summed into a `u128`, so the sum is exact (a group would
    /// need 2^64 points to overflow it).
    fn score_one(
        &self,
        idx: usize,
        weight: u32,
        attr: Option<u32>,
        ids: Option<(u32, u32)>,
        points: &[PrivacyPoint],
    ) -> (u128, u32) {
        let pref = ids
            .and_then(|(a, p)| self.pref_index[idx].lookup(a, p))
            .unwrap_or(PrivacyPoint::ZERO);
        let datum = match attr {
            Some(a) => self.pop.datum(idx, a),
            None => DatumSensitivity::neutral(),
        };
        let mut score = 0u128;
        let mut violations = 0u32;
        for point in points {
            score += u128::from(conf(&pref, point, weight, datum));
            if ViolationGeometry::compare(&pref, point).is_violation() {
                violations += 1;
            }
        }
        (score, violations)
    }

    /// Consume a population delta: apply it to the compiled population in
    /// place, then replay the event log — removals `swap_remove` the
    /// per-provider state, appends grow it, and every touched occurrence
    /// is re-scored against the cached policy groups. Cost is
    /// `O(touched × groups)` plus the delta application itself; nothing
    /// scales with `N`.
    pub fn apply_delta(&mut self, delta: &PopulationDelta) -> Result<DeltaOutcome, DeltaError> {
        let outcome = self.pop.apply_delta(delta)?;
        let group_pts = group_points(&self.policy, &self.attributes);
        let mut dirty: Vec<usize> = Vec::new();
        for ev in outcome.events() {
            match *ev {
                DeltaEvent::Touched(i) => dirty.push(i as usize),
                DeltaEvent::Appended(i, _) => {
                    let i = i as usize;
                    debug_assert_eq!(i, self.scores.len());
                    self.scores.push(0);
                    self.violation_counts.push(0);
                    self.pref_index.push(ProviderPrefIndex::default());
                    for contrib in self.groups.values_mut() {
                        contrib.scores.push(0);
                        contrib.violations.push(0);
                    }
                    dirty.push(i);
                }
                DeltaEvent::Removed(i) => {
                    let i = i as usize;
                    self.scores.swap_remove(i);
                    self.violation_counts.swap_remove(i);
                    self.pref_index.swap_remove(i);
                    for contrib in self.groups.values_mut() {
                        contrib.scores.swap_remove(i);
                        contrib.violations.swap_remove(i);
                    }
                    // The then-last occurrence moved into slot `i`; any
                    // pending dirty marks follow it, and marks on the
                    // removed occurrence die with it.
                    let moved = self.scores.len();
                    dirty.retain(|&d| d != i);
                    for d in &mut dirty {
                        if *d == moved {
                            *d = i;
                        }
                    }
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        for i in dirty {
            self.rescore(i, &group_pts);
        }
        Ok(outcome)
    }

    /// Recompute occurrence `i` from scratch against every cached group:
    /// rebuild its preference table from the (just-mutated) population
    /// rows, then overwrite its slot in each group's contribution vector
    /// and its exact sums.
    fn rescore(&mut self, i: usize, group_pts: &HashMap<GroupKey, Vec<PrivacyPoint>>) {
        self.pref_index[i] = index_occurrence(&self.pop, i);
        let (attrs, purposes) = self.pop.symbols();
        let mut fresh: Vec<(GroupKey, u128, u32)> = Vec::with_capacity(group_pts.len());
        for (key, points) in group_pts {
            let (attribute, purpose) = key;
            let weight = self.sensitivity.attribute_weight(attribute, purpose.name());
            let attr = attrs.get(attribute);
            let ids = attr.zip(purposes.get(purpose.name()));
            let (s, v) = self.score_one(i, weight, attr, ids, points);
            fresh.push((key.clone(), s, v));
        }
        let mut total = 0u128;
        let mut violations = 0u64;
        for (key, s, v) in fresh {
            let contrib = self
                .groups
                .get_mut(&key)
                .expect("groups mirror the applied policy's group keys");
            contrib.scores[i] = s;
            contrib.violations[i] = v;
            total += s;
            violations += u64::from(v);
        }
        self.scores[i] = total;
        self.violation_counts[i] = violations;
    }

    /// The current policy.
    pub fn policy(&self) -> &HousePolicy {
        &self.policy
    }

    /// The auditor's compiled population (epoch included), for callers
    /// that want to run batch audits or what-if sweeps over the same
    /// delta-maintained state.
    pub fn compiled(&self) -> &CompiledPopulation {
        &self.pop
    }

    /// `Violation_i` for provider at population index `i`. The exact
    /// `u128` pre-clamp sum is clamped to `u64` here, on read — the same
    /// per-provider saturation the batch engine applies.
    pub fn score(&self, i: usize) -> u64 {
        clamp_score(self.scores[i])
    }

    /// `w_i` for provider at population index `i`.
    pub fn violated(&self, i: usize) -> bool {
        self.violation_counts[i] > 0
    }

    /// `default_i` for provider at population index `i`.
    pub fn defaulted(&self, i: usize) -> bool {
        defaults(self.score(i), self.pop.threshold_of(i))
    }

    /// Equation 16's `Violations`: the sum of clamped per-provider
    /// scores, exactly what the batch engine's report totals.
    pub fn total_violations(&self) -> u128 {
        self.scores
            .iter()
            .map(|&s| u128::from(clamp_score(s)))
            .sum()
    }

    /// The counts-only aggregate of the current state — identical to
    /// [`crate::AuditEngine::counts`] over the same population and
    /// policy, and cheap enough to snapshot after every delta.
    pub fn outcome(&self) -> PolicyOutcome {
        PolicyOutcome {
            total_violations: self.total_violations(),
            violated: self.violation_counts.iter().filter(|&&c| c > 0).count(),
            defaulted: (0..self.pop.len()).filter(|&i| self.defaulted(i)).count(),
            population: self.pop.len(),
        }
    }

    /// `P(W)` under the current policy (counted directly, no allocation).
    pub fn p_violation(&self) -> f64 {
        crate::probability::census_fraction(
            self.violation_counts.iter().filter(|&&c| c > 0).count(),
            self.pop.len(),
        )
    }

    /// `P(Default)` under the current policy (counted directly, no
    /// allocation).
    pub fn p_default(&self) -> f64 {
        crate::probability::census_fraction(
            (0..self.pop.len()).filter(|&i| self.defaulted(i)).count(),
            self.pop.len(),
        )
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.pop.len()
    }
}

/// The batch engine's per-provider `u64` saturation, applied to the
/// exact pre-clamp sum on read.
fn clamp_score(s: u128) -> u64 {
    s.min(u128::from(u64::MAX)) as u64
}

/// Build one occurrence's binary-searchable preference table from the
/// compiled population's dense rows. Stable sort + keep-first dedup
/// reproduce `effective_point`'s find-first semantics; rows for
/// attributes outside the audited set are harmless dead weight (their
/// ids are never looked up).
fn index_occurrence(pop: &CompiledPopulation, i: usize) -> ProviderPrefIndex {
    let mut entries: Vec<(u32, u32, PrivacyPoint)> = pop
        .pref_rows_of(i)
        .map(|r| (r.attr, r.purpose, r.point))
        .collect();
    entries.sort_by_key(|e| (e.0, e.1));
    entries.dedup_by_key(|e| (e.0, e.1));
    ProviderPrefIndex { entries }
}

/// Group a policy's tuples by `(attribute, purpose)`, keeping only
/// attributes the data table stores; points within a group are sorted so
/// group equality is order-insensitive.
fn group_points(
    policy: &HousePolicy,
    attributes: &[String],
) -> HashMap<GroupKey, Vec<qpv_taxonomy::PrivacyPoint>> {
    let mut groups: HashMap<GroupKey, Vec<qpv_taxonomy::PrivacyPoint>> = HashMap::new();
    for t in policy.tuples() {
        if !attributes.contains(&t.attribute) {
            continue;
        }
        groups
            .entry((t.attribute.clone(), t.tuple.purpose.clone()))
            .or_default()
            .push(t.tuple.point);
    }
    for points in groups.values_mut() {
        points.sort();
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEngine;
    use crate::sensitivity::DatumSensitivity;
    use qpv_policy::ProviderId;
    use qpv_taxonomy::{Dim, PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn population(n: u64) -> Vec<ProviderProfile> {
        (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 20 + (i % 7) * 10);
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(2 + (i % 3) as u32, 2, 30)),
                );
                p.preferences.add(
                    "age",
                    PrivacyTuple::from_point("pr", pt(2, 3, 60 + (i % 5) as u32)),
                );
                p.sensitivities.insert(
                    "weight".into(),
                    DatumSensitivity::new(1 + (i % 4) as u32, 1, 2, 1),
                );
                p
            })
            .collect()
    }

    fn weights() -> AttributeSensitivities {
        let mut w = AttributeSensitivities::new();
        w.set("weight", 4);
        w.set("age", 2);
        w
    }

    fn policy(level: u32) -> HousePolicy {
        HousePolicy::builder("h")
            .tuple(
                "weight",
                PrivacyTuple::from_point("pr", pt(level, level, 30 + level)),
            )
            .tuple("age", PrivacyTuple::from_point("pr", pt(2, 2, 50 + level)))
            .build()
    }

    /// Reference audit results for cross-checking.
    fn full_audit(profiles: &[ProviderProfile], hp: &HousePolicy) -> (Vec<u64>, u128) {
        let engine = AuditEngine::new(hp.clone(), ["weight", "age"], weights());
        let report = engine.run(profiles);
        (
            report.providers.iter().map(|p| p.score).collect(),
            report.total_violations,
        )
    }

    #[test]
    fn initial_state_matches_full_audit() {
        let profiles = population(50);
        let hp = policy(3);
        let auditor = IncrementalAuditor::new(
            profiles.clone(),
            vec!["weight".into(), "age".into()],
            &weights(),
            hp.clone(),
        );
        let (scores, total) = full_audit(&profiles, &hp);
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(auditor.score(i), *s, "provider {i}");
        }
        assert_eq!(auditor.total_violations(), total);
    }

    #[test]
    fn incremental_updates_agree_with_full_recompute() {
        let profiles = population(50);
        let mut auditor = IncrementalAuditor::new(
            profiles.clone(),
            vec!["weight".into(), "age".into()],
            &weights(),
            policy(0),
        );
        for level in [1, 4, 2, 7, 0, 9] {
            let hp = policy(level);
            auditor.apply_policy(hp.clone());
            let (scores, total) = full_audit(&profiles, &hp);
            for (i, s) in scores.iter().enumerate() {
                assert_eq!(auditor.score(i), *s, "level {level}, provider {i}");
            }
            assert_eq!(auditor.total_violations(), total, "level {level}");
            // Probabilities agree too.
            let engine = AuditEngine::new(hp, ["weight", "age"], weights());
            let report = engine.run(&profiles);
            assert_eq!(auditor.p_violation(), report.p_violation());
            assert_eq!(auditor.p_default(), report.p_default());
        }
    }

    #[test]
    fn touching_one_attribute_leaves_other_groups_cached() {
        let profiles = population(20);
        let mut auditor = IncrementalAuditor::new(
            profiles,
            vec!["weight".into(), "age".into()],
            &weights(),
            policy(3),
        );
        let age_before = auditor
            .groups
            .get(&("age".to_string(), Purpose::new("pr")))
            .cloned()
            .expect("age group exists");
        // Widen only weight.
        let hp = auditor.policy().widened(Dim::Granularity, 2);
        // widened() touches every tuple; build a weight-only change instead.
        let mut weight_only = policy(3);
        weight_only = HousePolicy::builder(weight_only.name)
            .tuple("weight", PrivacyTuple::from_point("pr", pt(9, 9, 99)))
            .tuple("age", PrivacyTuple::from_point("pr", pt(2, 2, 53)))
            .build();
        let _ = hp;
        auditor.apply_policy(weight_only);
        let age_after = auditor
            .groups
            .get(&("age".to_string(), Purpose::new("pr")))
            .cloned()
            .expect("age group still exists");
        assert_eq!(age_before, age_after, "unchanged group was recomputed");
    }

    #[test]
    fn new_purposes_and_removed_tuples_are_handled() {
        let profiles = population(10);
        let mut auditor = IncrementalAuditor::new(
            profiles.clone(),
            vec!["weight".into(), "age".into()],
            &weights(),
            policy(2),
        );
        // Add an unconsented purpose: scores must rise (implicit deny-all).
        let before = auditor.total_violations();
        let with_ads = auditor.policy().with_new_purpose("ads", pt(3, 3, 365));
        auditor.apply_policy(with_ads.clone());
        assert!(auditor.total_violations() > before);
        let (scores, _) = full_audit(&profiles, &with_ads);
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(auditor.score(i), *s);
        }
        // Now shrink back to an empty policy: everything returns to zero.
        auditor.apply_policy(HousePolicy::new("h"));
        assert_eq!(auditor.total_violations(), 0);
        assert_eq!(auditor.p_violation(), 0.0);
    }

    /// Regression test for the retraction underflow: with datum
    /// sensitivities near `u32::MAX` two policy groups each contribute a
    /// saturated `u64::MAX`, so the seed's unchecked `+=` / `-=`
    /// accumulation panicked in debug builds (add overflow on the second
    /// group, sub underflow on retraction). Both directions now saturate
    /// symmetrically.
    #[test]
    fn saturated_scores_survive_policy_retraction() {
        let mut p = ProviderProfile::new(ProviderId(0), u64::MAX);
        p.preferences
            .add("a", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        p.preferences
            .add("b", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        for attr in ["a", "b"] {
            p.sensitivities.insert(
                attr.into(),
                DatumSensitivity::new(u32::MAX, u32::MAX, u32::MAX, u32::MAX),
            );
        }
        let mut w = AttributeSensitivities::new();
        w.set("a", u32::MAX);
        w.set("b", u32::MAX);
        let both = HousePolicy::builder("h")
            .tuple("a", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .tuple("b", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .build();
        // Accumulating two saturated groups must clamp, not overflow.
        let mut auditor = IncrementalAuditor::new(vec![p], vec!["a".into(), "b".into()], &w, both);
        assert_eq!(auditor.score(0), u64::MAX);
        assert!(auditor.violated(0));
        // Retracting one of them must clamp, not underflow.
        let only_a = HousePolicy::builder("h")
            .tuple("a", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .build();
        auditor.apply_policy(only_a);
        assert!(auditor.violated(0), "group a still violates");
        // Shrinking to an empty policy fully clears the provider.
        auditor.apply_policy(HousePolicy::new("h"));
        assert_eq!(auditor.score(0), 0);
        assert_eq!(auditor.total_violations(), 0);
        assert!(!auditor.violated(0));
    }

    /// Regression for the saturation edge: the auditor keeps exact `u128`
    /// pre-clamp sums, so retracting a group after the clamped `u64` read
    /// has pinned at `u64::MAX` restores the remaining groups' score
    /// *exactly* — no rebuild required, bit-identical to one.
    #[test]
    fn retraction_after_clamp_is_exact() {
        // Group "a" saturates the provider's clamped score on its own;
        // group "b" contributes a small, exactly-known amount.
        let mut p = ProviderProfile::new(ProviderId(0), u64::MAX);
        p.preferences
            .add("a", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        p.preferences
            .add("b", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        p.sensitivities.insert(
            "a".into(),
            DatumSensitivity::new(u32::MAX, u32::MAX, u32::MAX, u32::MAX),
        );
        let mut w = AttributeSensitivities::new();
        w.set("a", u32::MAX);
        w.set("b", 2);
        let attrs = vec!["a".to_string(), "b".to_string()];
        let b_only = HousePolicy::builder("h")
            .tuple("b", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .build();
        // The exact score under the b-only policy, from the batch engine.
        let engine = AuditEngine::new(b_only.clone(), ["a", "b"], w.clone());
        let exact = engine.run(std::slice::from_ref(&p)).providers[0].score;
        assert!(exact > 0 && exact < u64::MAX);

        let both = HousePolicy::builder("h")
            .tuple("a", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .tuple("b", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .build();
        let mut auditor = IncrementalAuditor::new(vec![p.clone()], attrs.clone(), &w, both);
        assert_eq!(auditor.score(0), u64::MAX, "the read clamps like batch");
        // Retracting "a" subtracts its exact contribution from the exact
        // pre-clamp sum: what remains is precisely group b's score.
        auditor.apply_policy(b_only.clone());
        assert_eq!(
            auditor.score(0),
            exact,
            "retraction is exact past the clamp"
        );
        assert!(auditor.violated(0), "the b violation is still counted");
        // And it agrees bit-for-bit with fresh rebuilds.
        let rebuilt = IncrementalAuditor::new(vec![p.clone()], attrs.clone(), &w, b_only.clone());
        assert_eq!(rebuilt.score(0), auditor.score(0));
        let from_pop = IncrementalAuditor::from_population(
            CompiledPopulation::from_profiles(std::slice::from_ref(&p)),
            attrs,
            &w,
            b_only,
        );
        assert_eq!(from_pop.score(0), exact);
        assert!(from_pop.violated(0));
    }

    /// Delta consumption: random-ish op sequences leave the auditor in
    /// exactly the state a fresh build over the mutated profiles reaches.
    #[test]
    fn apply_delta_matches_fresh_build() {
        use crate::pop::PopulationDelta;
        let mut profiles = population(30);
        let attrs = vec!["weight".to_string(), "age".to_string()];
        let mut auditor =
            IncrementalAuditor::new(profiles.clone(), attrs.clone(), &weights(), policy(3));

        let mut newcomer = ProviderProfile::new(ProviderId(100), 15);
        newcomer
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        let delta = PopulationDelta::new()
            .upsert(newcomer)
            .remove(ProviderId(3))
            .set_attribute_prefs(
                ProviderId(7),
                "age",
                vec![PrivacyTuple::from_point("pr", pt(9, 9, 99))],
            )
            .set_sensitivity(ProviderId(7), "weight", DatumSensitivity::new(4, 4, 4, 4))
            .set_threshold(ProviderId(11), 0)
            .remove(ProviderId(5));

        delta.apply_to_profiles(&mut profiles);
        let outcome = auditor.apply_delta(&delta).expect("unique ids");
        assert_eq!(outcome.epoch, auditor.compiled().epoch());

        let fresh = IncrementalAuditor::new(profiles.clone(), attrs, &weights(), policy(3));
        assert_eq!(auditor.population(), fresh.population());
        for i in 0..fresh.population() {
            assert_eq!(auditor.score(i), fresh.score(i), "provider slot {i}");
            assert_eq!(auditor.violated(i), fresh.violated(i));
            assert_eq!(auditor.defaulted(i), fresh.defaulted(i));
        }
        assert_eq!(auditor.outcome(), fresh.outcome());
        // And a later policy edit still updates incrementally and agrees.
        auditor.apply_policy(policy(6));
        let (scores, total) = full_audit(&profiles, &policy(6));
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(auditor.score(i), *s);
        }
        assert_eq!(auditor.total_violations(), total);
    }

    /// Deltas compose with policy edits in any order, and the aggregate
    /// outcome always equals the batch engine's counts over the auditor's
    /// own compiled population.
    #[test]
    fn deltas_and_policy_edits_interleave() {
        use crate::pop::PopulationDelta;
        let profiles = population(25);
        let attrs = vec!["weight".to_string(), "age".to_string()];
        let mut auditor =
            IncrementalAuditor::new(profiles.clone(), attrs.clone(), &weights(), policy(1));
        for (round, level) in [4u32, 0, 7].into_iter().enumerate() {
            auditor.apply_policy(policy(level));
            let delta = PopulationDelta::new()
                .set_threshold(ProviderId(round as u64), 0)
                .remove(ProviderId(20 - round as u64));
            auditor.apply_delta(&delta).expect("unique ids");
            let engine = AuditEngine::new(policy(level), ["weight", "age"], weights());
            assert_eq!(
                auditor.outcome(),
                engine.counts(auditor.compiled()),
                "round {round}"
            );
        }
    }

    #[test]
    fn policy_attributes_not_in_table_are_ignored() {
        let profiles = population(5);
        let mut hp = policy(2);
        hp.add("ghost_attr", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
        let auditor = IncrementalAuditor::new(
            profiles.clone(),
            vec!["weight".into(), "age".into()],
            &weights(),
            hp.clone(),
        );
        let (scores, _) = full_audit(&profiles, &hp);
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(auditor.score(i), *s);
        }
    }
}
