//! Unions of basic sets (ISL `set`), and unions across different spaces
//! (ISL `union_set`).

use crate::basic_set::BasicSet;
use crate::space::Space;
use std::collections::BTreeMap;
use std::fmt;

/// A finite union of [`BasicSet`]s over a common space.
///
/// # Examples
///
/// ```
/// use iolb_poly::{BasicSet, Space};
/// # let _session = iolb_poly::EngineCtx::new().enter();
/// let space = Space::new("S", &["i"]);
/// let a = BasicSet::universe(space.clone()).ge_const(0, 0).lt_param(0, "N");
/// let b = BasicSet::universe(space.clone()).ge_const(0, 5);
/// let u = a.to_set().union(&b.to_set());
/// assert!(u.contains(&[2], &[("N", 4)]));
/// assert!(u.contains(&[9], &[("N", 4)]));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Set {
    space: Space,
    parts: Vec<BasicSet>,
}

impl Set {
    /// The empty set over a space.
    pub fn empty(space: Space) -> Self {
        Set {
            space,
            parts: Vec::new(),
        }
    }

    /// The universe set over a space.
    pub fn universe(space: Space) -> Self {
        Set {
            space: space.clone(),
            parts: vec![BasicSet::universe(space)],
        }
    }

    /// Builds a set from basic sets (empty pieces are dropped).
    pub fn from_basic_sets(space: Space, parts: Vec<BasicSet>) -> Self {
        let parts = parts
            .into_iter()
            .filter(|p| {
                assert!(p.space().compatible(&space), "incompatible piece space");
                !p.is_empty()
            })
            .collect();
        Set { space, parts }
    }

    /// The space of the set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The disjuncts.
    pub fn parts(&self) -> &[BasicSet] {
        &self.parts
    }

    /// The dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// Returns true if the union is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Membership test at concrete parameter values.
    pub fn contains(&self, point: &[i128], params: &[(&str, i128)]) -> bool {
        self.parts.iter().any(|p| p.contains(point, params))
    }

    /// Union with another set over a compatible space.
    pub fn union(&self, other: &Set) -> Set {
        assert!(self.space.compatible(other.space()), "incompatible spaces");
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        Set {
            space: self.space.clone(),
            parts,
        }
    }

    /// Intersection with another set (pairwise on disjuncts).
    pub fn intersect(&self, other: &Set) -> Set {
        assert!(self.space.compatible(other.space()), "incompatible spaces");
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let i = a.intersect(b);
                if !i.is_empty() {
                    parts.push(i);
                }
            }
        }
        Set {
            space: self.space.clone(),
            parts,
        }
    }

    /// Set difference `self ∖ other`.
    pub fn subtract(&self, other: &Set) -> Set {
        assert!(self.space.compatible(other.space()), "incompatible spaces");
        let mut current: Vec<BasicSet> = self.parts.clone();
        for b in &other.parts {
            if current.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for a in &current {
                next.extend(a.subtract(b).parts.iter().cloned());
            }
            current = next;
        }
        Set {
            space: self.space.clone(),
            parts: current,
        }
    }

    /// Returns true if `self ⊆ other` (conservative).
    pub fn is_subset(&self, other: &Set) -> bool {
        self.subtract(other).is_empty()
    }

    /// Returns true if the two sets intersect for some parameter values.
    pub fn intersects(&self, other: &Set) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Renames a parameter in every disjunct.
    pub fn rename_param(&self, from: &str, to: &str) -> Set {
        Set {
            space: self.space.clone(),
            parts: self
                .parts
                .iter()
                .map(|p| p.rename_param(from, to))
                .collect(),
        }
    }

    /// Adds a parameter-only assumption to every disjunct.
    pub fn constrain_params(&self, c: &crate::affine::Constraint) -> Set {
        Set {
            space: self.space.clone(),
            parts: self.parts.iter().map(|p| p.constrain_params(c)).collect(),
        }
    }

    /// Rewrites the union into pairwise-disjoint pieces (needed before
    /// summing per-piece cardinalities).
    pub fn make_disjoint(&self) -> Set {
        let mut disjoint: Vec<BasicSet> = Vec::new();
        for p in &self.parts {
            let mut remaining = p.to_set();
            for d in &disjoint {
                remaining = remaining.subtract(&d.to_set());
            }
            disjoint.extend(remaining.parts.iter().cloned());
        }
        Set {
            space: self.space.clone(),
            parts: disjoint,
        }
    }

    /// The maximum intrinsic dimension over the disjuncts (0 for the empty
    /// set).
    pub fn intrinsic_dim(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.intrinsic_dim())
            .max()
            .unwrap_or(0)
    }

    /// Enumerates integer points for concrete parameters (for validation on
    /// small instances). Points in overlapping disjuncts are deduplicated.
    pub fn enumerate(&self, params: &[(&str, i128)], bound: i128) -> Vec<Vec<i128>> {
        let mut out: Vec<Vec<i128>> = Vec::new();
        for p in &self.parts {
            for pt in p.enumerate(params, bound) {
                if !out.contains(&pt) {
                    out.push(pt);
                }
            }
        }
        out.sort();
        out
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{{ {} : false }}", self.space);
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{}", p)?;
        }
        Ok(())
    }
}

/// A union of sets living in different spaces, keyed by tuple name
/// (the ISL `union_set`). Used for may-spill sets, which mix vertices of
/// several statements.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct UnionSet {
    sets: BTreeMap<String, Set>,
}

impl UnionSet {
    /// The empty union set.
    pub fn empty() -> Self {
        UnionSet {
            sets: BTreeMap::new(),
        }
    }

    /// Builds a union set holding a single set.
    pub fn from_set(set: Set) -> Self {
        let mut u = UnionSet::empty();
        u.add_set(set);
        u
    }

    /// Returns the component set for a tuple name, if present.
    pub fn get(&self, name: &str) -> Option<&Set> {
        self.sets.get(name)
    }

    /// Iterates over (tuple name, set) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Set)> {
        self.sets.iter()
    }

    /// Adds (unions in) a set.
    pub fn add_set(&mut self, set: Set) {
        if set.is_empty() {
            return;
        }
        let name = set.space().name().to_string();
        match self.sets.get_mut(&name) {
            Some(existing) => *existing = existing.union(&set),
            None => {
                self.sets.insert(name, set);
            }
        }
    }

    /// Union of two union sets.
    pub fn union(&self, other: &UnionSet) -> UnionSet {
        let mut out = self.clone();
        for (_, s) in other.iter() {
            out.add_set(s.clone());
        }
        out
    }

    /// Returns true if no component has any point.
    pub fn is_empty(&self) -> bool {
        self.sets.values().all(|s| s.is_empty())
    }

    /// Renames a parameter in every component.
    pub fn rename_param(&self, from: &str, to: &str) -> UnionSet {
        let mut out = UnionSet::empty();
        for (_, s) in self.iter() {
            out.add_set(s.rename_param(from, to));
        }
        out
    }

    /// Adds a parameter-only assumption to every component.
    pub fn constrain_params(&self, c: &crate::affine::Constraint) -> UnionSet {
        let mut out = UnionSet::empty();
        for (_, s) in self.iter() {
            out.add_set(s.constrain_params(c));
        }
        out
    }

    /// Returns true if the two union sets share a point in some space for
    /// some parameter values.
    pub fn intersects(&self, other: &UnionSet) -> bool {
        for (name, s) in &self.sets {
            if let Some(o) = other.get(name) {
                if s.intersects(o) {
                    return true;
                }
            }
        }
        false
    }

    /// Componentwise difference.
    pub fn subtract(&self, other: &UnionSet) -> UnionSet {
        let mut out = UnionSet::empty();
        for (name, s) in &self.sets {
            match other.get(name) {
                Some(o) => out.add_set(s.subtract(o)),
                None => out.add_set(s.clone()),
            }
        }
        out
    }
}

impl fmt::Display for UnionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sets.is_empty() {
            return write!(f, "{{ }}");
        }
        for (i, (_, s)) in self.sets.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineCtx;

    fn interval(name: &str, lo: i128, param: &str) -> BasicSet {
        BasicSet::universe(Space::new(name, &["i"]))
            .ge_const(0, lo)
            .lt_param(0, param)
    }

    #[test]
    fn union_and_membership() {
        let _session = EngineCtx::new().enter();
        let a = interval("S", 0, "N").to_set();
        let b = interval("S", 10, "M").to_set();
        let u = a.union(&b);
        assert!(u.contains(&[3], &[("N", 5), ("M", 20)]));
        assert!(u.contains(&[15], &[("N", 5), ("M", 20)]));
        assert!(!u.contains(&[7], &[("N", 5), ("M", 20)]));
    }

    #[test]
    fn intersect_and_subtract() {
        let _session = EngineCtx::new().enter();
        let a = interval("S", 0, "N").to_set();
        let b = interval("S", 2, "N").to_set();
        let i = a.intersect(&b);
        assert!(i.contains(&[2], &[("N", 5)]));
        assert!(!i.contains(&[1], &[("N", 5)]));
        let d = a.subtract(&b);
        assert!(d.contains(&[1], &[("N", 5)]));
        assert!(!d.contains(&[2], &[("N", 5)]));
    }

    #[test]
    fn subset_and_disjoint() {
        let _session = EngineCtx::new().enter();
        let a = interval("S", 0, "N").to_set();
        let b = interval("S", 2, "N").to_set();
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        let overlapping = a.union(&b);
        let dis = overlapping.make_disjoint();
        // Total points for N = 6: 6 (0..5); disjoint pieces should also count 6.
        let pts = dis.enumerate(&[("N", 6)], 20);
        assert_eq!(pts.len(), 6);
    }

    #[test]
    fn empty_set_behaviour() {
        let _session = EngineCtx::new().enter();
        let space = Space::new("S", &["i"]);
        let e = Set::empty(space.clone());
        assert!(e.is_empty());
        let u = Set::universe(space);
        assert!(!u.is_empty());
        assert!(e.is_subset(&u));
    }

    #[test]
    fn union_set_across_spaces() {
        let _session = EngineCtx::new().enter();
        let mut u = UnionSet::empty();
        u.add_set(interval("S1", 0, "N").to_set());
        u.add_set(interval("S2", 0, "M").to_set());
        assert!(!u.is_empty());
        assert!(u.get("S1").is_some());
        assert!(u.get("S3").is_none());

        let mut v = UnionSet::empty();
        v.add_set(interval("S2", 0, "M").to_set());
        assert!(u.intersects(&v));

        let mut w = UnionSet::empty();
        w.add_set(interval("S3", 0, "M").to_set());
        assert!(!u.intersects(&w));
    }

    #[test]
    fn union_set_subtract() {
        let _session = EngineCtx::new().enter();
        let mut u = UnionSet::empty();
        u.add_set(interval("S1", 0, "N").to_set());
        let mut v = UnionSet::empty();
        v.add_set(interval("S1", 2, "N").to_set());
        let d = u.subtract(&v);
        let s1 = d.get("S1").unwrap();
        assert!(s1.contains(&[1], &[("N", 5)]));
        assert!(!s1.contains(&[3], &[("N", 5)]));
    }

    #[test]
    fn intersects_checks_params_existentially() {
        let _session = EngineCtx::new().enter();
        // [0, N) and [10, M): these overlap for some N, M (e.g. N = 20), so
        // the conservative answer must be "they intersect".
        let a = interval("S", 0, "N").to_set();
        let b = interval("S", 10, "M").to_set();
        assert!(a.intersects(&b));
    }
}
