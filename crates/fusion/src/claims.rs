//! The claim model.

use std::sync::OnceLock;

use wrangler_table::Value;

/// One source's assertion about one attribute of one entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Entity identifier (cluster index from entity resolution).
    pub entity: usize,
    /// Attribute index within the target schema.
    pub attr: usize,
    /// The asserted value (never null — silence is not a claim).
    pub value: Value,
    /// Source index.
    pub source: usize,
}

/// Do two claimed values denote the same fact? Strings compare
/// case-insensitively trimmed; numerics within `rel_tol` relative tolerance;
/// otherwise exact.
pub fn values_agree(a: &Value, b: &Value, rel_tol: f64) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1e-9);
            (x - y).abs() <= rel_tol * scale
        }
        _ => match (a.as_str(), b.as_str()) {
            (Some(x), Some(y)) => x.trim().eq_ignore_ascii_case(y.trim()),
            _ => a == b,
        },
    }
}

/// A set of claims over a shared entity/attribute space. Reads go through
/// a [`ClaimIndex`] built on the first read after the last [`ClaimSet::add`],
/// so truth discovery, the fuse kernel, re-fusion and explanations all share
/// one grouping per pass.
#[derive(Debug, Clone, Default)]
pub struct ClaimSet {
    claims: Vec<Claim>,
    num_sources: usize,
    rel_tol: f64,
    /// Derived from `claims` and `rel_tol`, which is why both are private:
    /// every way of changing either drops it.
    index: OnceLock<ClaimIndex>,
}

impl ClaimSet {
    /// New claim set with a relative tolerance of `1e-9`.
    pub fn new(num_sources: usize) -> ClaimSet {
        assert!(
            u32::try_from(num_sources).is_ok(),
            "source ids are indexed as u32"
        );
        ClaimSet {
            claims: Vec::new(),
            num_sources,
            rel_tol: 1e-9,
            index: OnceLock::new(),
        }
    }

    /// Number of sources (source indices are `0..num_sources`).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// All claims, in insertion order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Relative tolerance for numeric agreement.
    pub fn rel_tol(&self) -> f64 {
        self.rel_tol
    }

    /// Set the relative tolerance for numeric agreement.
    pub fn set_rel_tol(&mut self, rel_tol: f64) {
        self.rel_tol = rel_tol;
        self.index.take();
    }

    /// Add a claim (ignored if the value is null).
    pub fn add(&mut self, entity: usize, attr: usize, value: Value, source: usize) {
        assert!(source < self.num_sources, "source index out of range");
        // The index packs attribute and claim ids into 32 bits each.
        assert!(u32::try_from(attr).is_ok(), "attribute index out of range");
        assert!(self.claims.len() < u32::MAX as usize, "too many claims");
        if !value.is_null() {
            self.index.take();
            self.claims.push(Claim {
                entity,
                attr,
                value,
                source,
            });
        }
    }

    /// The claims grouped by slot and agreement class.
    pub fn index(&self) -> &ClaimIndex {
        self.index
            .get_or_init(|| ClaimIndex::group(&self.claims, self.slot_order(), self.rel_tol))
    }

    /// Claim ids ordered by slot, insertion order within a slot. A stable
    /// counting sort on the dense key `entity × attributes + attribute`
    /// when that key space is at most a few times the number of claims (it
    /// is on every fleet: entities are cluster numbers); otherwise one sort
    /// of an integer per claim — entity, attribute, id from the top bits
    /// down, the id breaking ties.
    fn slot_order(&self) -> Vec<u32> {
        let (entities, attrs) = self
            .claims
            .iter()
            .fold((0, 0), |(e, a), c| (e.max(c.entity), a.max(c.attr)));
        let attrs = attrs + 1;
        let keys = entities
            .checked_add(1)
            .and_then(|e| e.checked_mul(attrs))
            .filter(|&keys| keys <= 4 * self.claims.len() + 64);
        let Some(keys) = keys else {
            let mut keyed: Vec<u128> = self
                .claims
                .iter()
                .zip(0u32..)
                .map(|(c, id)| (c.entity as u128) << 64 | (c.attr as u128) << 32 | id as u128)
                .collect();
            keyed.sort_unstable();
            return keyed.into_iter().map(|key| key as u32).collect();
        };
        let key = |c: &Claim| c.entity * attrs + c.attr;
        // `next[k]` is where key `k`'s next claim goes.
        let mut next = vec![0u32; keys + 1];
        for c in &self.claims {
            next[key(c) + 1] += 1;
        }
        for k in 0..keys {
            next[k + 1] += next[k];
        }
        let mut ids = vec![0u32; self.claims.len()];
        for (c, id) in self.claims.iter().zip(0u32..) {
            let at = &mut next[key(c)];
            ids[*at as usize] = id;
            *at += 1;
        }
        ids
    }

    /// Claims about one (entity, attribute) slot, in insertion order.
    pub fn slot(&self, entity: usize, attr: usize) -> Vec<&Claim> {
        let index = self.index();
        index
            .slot_no(entity, attr)
            .map(|slot| {
                index
                    .claim_ids(slot)
                    .iter()
                    .map(|&id| &self.claims[id as usize])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All (entity, attribute) slots with at least one claim, in ascending
    /// order.
    pub fn slots(&self) -> Vec<(usize, usize)> {
        self.index().slots().to_vec()
    }

    /// Group a slot's claims into agreement classes: each class is a set of
    /// claims whose values mutually agree, represented by the first value.
    /// The uncompiled reference for [`ClaimIndex`]'s classes.
    pub fn agreement_classes<'a>(&self, slot_claims: &[&'a Claim]) -> Vec<(Value, Vec<&'a Claim>)> {
        let mut classes: Vec<(Value, Vec<&Claim>)> = Vec::new();
        for c in slot_claims {
            match classes
                .iter_mut()
                .find(|(v, _)| values_agree(v, &c.value, self.rel_tol))
            {
                Some((_, members)) => members.push(c),
                None => classes.push((c.value.clone(), vec![c])),
            }
        }
        classes
    }
}

/// Claims grouped once into flat arrays: slots ascending, each slot's claims
/// a range in insertion order, each agreement class a representative claim
/// plus a range of supporting sources. Classes are exactly
/// [`ClaimSet::agreement_classes`]'s: a claim joins the first class of its
/// slot whose *representative* it agrees with, so class order is first
/// appearance and supporter order is insertion order.
#[derive(Debug, Clone, Default)]
pub struct ClaimIndex {
    slots: Vec<(usize, usize)>,
    /// Slot `i` owns `claim_ids[slot_start[i]..slot_start[i + 1]]`, and the
    /// same range of `supporters` (one supporter per claim).
    slot_start: Vec<u32>,
    claim_ids: Vec<u32>,
    /// Slot `i` owns classes `class_start[i]..class_start[i + 1]`.
    class_start: Vec<u32>,
    /// The claim whose value represents the class (its first member).
    class_rep: Vec<u32>,
    /// Class `c` owns `supporters[support_start[c]..support_start[c + 1]]`.
    support_start: Vec<u32>,
    /// Source ids, class by class.
    supporters: Vec<u32>,
}

impl ClaimIndex {
    /// Group `ids` — claim ids ordered by slot, insertion order within a
    /// slot — into slots and agreement classes.
    pub(crate) fn group(claims: &[Claim], ids: Vec<u32>, rel_tol: f64) -> ClaimIndex {
        let mut index = ClaimIndex {
            slot_start: vec![0],
            class_start: vec![0],
            support_start: vec![0],
            supporters: Vec::with_capacity(ids.len()),
            ..ClaimIndex::default()
        };
        let key = |id: u32| (claims[id as usize].entity, claims[id as usize].attr);
        // Class of each claim of the slot at hand, relative to the slot's
        // first class.
        let mut class_of: Vec<usize> = Vec::new();
        let mut start = 0;
        while start < ids.len() {
            let slot = key(ids[start]);
            let len = ids[start..]
                .iter()
                .take_while(|&&id| key(id) == slot)
                .count();
            let members = &ids[start..start + len];
            let first_class = index.class_rep.len();
            class_of.clear();
            for &id in members {
                let value = &claims[id as usize].value;
                let class = index.class_rep[first_class..]
                    .iter()
                    .position(|&rep| values_agree(&claims[rep as usize].value, value, rel_tol))
                    .unwrap_or_else(|| {
                        index.class_rep.push(id);
                        index.class_rep.len() - 1 - first_class
                    });
                class_of.push(class);
            }
            for class in 0..index.class_rep.len() - first_class {
                for (&id, _) in members.iter().zip(&class_of).filter(|&(_, &c)| c == class) {
                    index.supporters.push(claims[id as usize].source as u32);
                }
                index.support_start.push(index.supporters.len() as u32);
            }
            start += len;
            index.slots.push(slot);
            index.slot_start.push(start as u32);
            index.class_start.push(index.class_rep.len() as u32);
        }
        index.claim_ids = ids;
        index
    }

    /// Slots with at least one claim, ascending.
    pub fn slots(&self) -> &[(usize, usize)] {
        &self.slots
    }

    /// Position of a slot in [`Self::slots`], if it has a claim.
    pub fn slot_no(&self, entity: usize, attr: usize) -> Option<usize> {
        self.slots.binary_search(&(entity, attr)).ok()
    }

    /// Ids (positions in [`ClaimSet::claims`]) of a slot's claims, in
    /// insertion order.
    pub fn claim_ids(&self, slot: usize) -> &[u32] {
        &self.claim_ids[self.slot_start[slot] as usize..self.slot_start[slot + 1] as usize]
    }

    /// Sources of a slot's claims, one per claim, class by class.
    pub fn sources(&self, slot: usize) -> &[u32] {
        &self.supporters[self.slot_start[slot] as usize..self.slot_start[slot + 1] as usize]
    }

    /// A slot's agreement classes, in order of first appearance.
    pub fn classes(&self, slot: usize) -> std::ops::Range<usize> {
        self.class_start[slot] as usize..self.class_start[slot + 1] as usize
    }

    /// Number of agreement classes over all slots.
    pub fn num_classes(&self) -> usize {
        self.class_rep.len()
    }

    /// Id of the claim whose value represents a class.
    pub fn class_rep(&self, class: usize) -> usize {
        self.class_rep[class] as usize
    }

    /// Sources supporting a class, one entry per claim, in insertion order.
    pub fn supporters(&self, class: usize) -> &[u32] {
        &self.supporters[self.support_start[class] as usize..self.support_start[class + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_semantics() {
        assert!(values_agree(&Value::Float(9.99), &Value::Float(9.99), 1e-9));
        assert!(values_agree(
            &Value::Float(100.0),
            &Value::Float(100.4),
            0.01
        ));
        assert!(!values_agree(
            &Value::Float(100.0),
            &Value::Float(102.0),
            0.01
        ));
        assert!(values_agree(&Value::Int(10), &Value::Float(10.0), 1e-9));
        assert!(values_agree(&" Acme ".into(), &"acme".into(), 0.0));
        assert!(!values_agree(&"acme".into(), &"bolt".into(), 0.0));
        assert!(values_agree(&Value::Bool(true), &Value::Bool(true), 0.0));
        assert!(!values_agree(&Value::Bool(true), &"true".into(), 0.0));
    }

    #[test]
    fn null_claims_dropped() {
        let mut cs = ClaimSet::new(2);
        cs.add(0, 0, Value::Null, 0);
        cs.add(0, 0, Value::Int(5), 1);
        assert_eq!(cs.claims().len(), 1);
    }

    #[test]
    fn slots_and_slot_lookup() {
        let mut cs = ClaimSet::new(3);
        cs.add(0, 0, 1.into(), 0);
        cs.add(0, 0, 2.into(), 1);
        cs.add(1, 2, 3.into(), 2);
        assert_eq!(cs.slots(), vec![(0, 0), (1, 2)]);
        assert_eq!(cs.slot(0, 0).len(), 2);
        assert_eq!(cs.slot(9, 9).len(), 0);
        // Slot 0's sources, class by class: 1 and 2 disagree.
        cs.add(0, 0, 1.into(), 2);
        assert_eq!(cs.index().sources(0), &[0, 2, 1]);
        assert_eq!(cs.index().sources(1), &[2]);
    }

    #[test]
    fn agreement_classes_group_tolerantly() {
        let mut cs = ClaimSet::new(4);
        cs.set_rel_tol(0.01);
        cs.add(0, 0, Value::Float(100.0), 0);
        cs.add(0, 0, Value::Float(100.5), 1);
        cs.add(0, 0, Value::Float(200.0), 2);
        cs.add(0, 0, Value::Float(100.2), 3);
        let slot = cs.slot(0, 0);
        let classes = cs.agreement_classes(&slot);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].1.len(), 3);
        assert_eq!(classes[1].1.len(), 1);
    }

    /// (representative value, supporters) of each class of a slot.
    fn classes_of(cs: &ClaimSet, entity: usize, attr: usize) -> Vec<(Value, Vec<u32>)> {
        let index = cs.index();
        let slot = index.slot_no(entity, attr).unwrap();
        index
            .classes(slot)
            .map(|c| {
                let rep = cs.claims()[index.class_rep(c)].value.clone();
                (rep, index.supporters(c).to_vec())
            })
            .collect()
    }

    #[test]
    fn index_classes_follow_the_first_representative() {
        // 100.0 ~ 100.9 ~ 101.8 at 1%, but 100.0 !~ 101.8: who came first
        // decides the classes. Claims of two slots arrive interleaved.
        let mut cs = ClaimSet::new(3);
        cs.set_rel_tol(0.01);
        cs.add(1, 0, Value::Float(100.9), 0);
        cs.add(0, 0, Value::Float(100.0), 0);
        cs.add(1, 0, Value::Float(100.0), 1);
        cs.add(0, 0, Value::Float(100.9), 1);
        cs.add(1, 0, Value::Float(101.8), 2);
        cs.add(0, 0, Value::Float(101.8), 2);
        assert_eq!(cs.index().slots(), [(0, 0), (1, 0)]);
        assert_eq!(
            classes_of(&cs, 0, 0),
            vec![
                (Value::Float(100.0), vec![0, 1]),
                (Value::Float(101.8), vec![2])
            ]
        );
        assert_eq!(
            classes_of(&cs, 1, 0),
            vec![(Value::Float(100.9), vec![0, 1, 2])]
        );
    }

    #[test]
    fn index_is_rebuilt_after_an_add_and_after_a_tolerance_change() {
        let mut cs = ClaimSet::new(2);
        cs.add(0, 0, Value::Float(100.0), 0);
        assert_eq!(cs.slots(), vec![(0, 0)]);
        cs.add(0, 0, Value::Float(100.5), 1);
        cs.add(2, 1, Value::Int(1), 1);
        assert_eq!(cs.slots(), vec![(0, 0), (2, 1)]);
        assert_eq!(cs.index().classes(0).len(), 2);
        cs.set_rel_tol(0.01);
        assert_eq!(cs.index().classes(0).len(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_source_panics() {
        let mut cs = ClaimSet::new(1);
        cs.add(0, 0, 1.into(), 5);
    }
}
