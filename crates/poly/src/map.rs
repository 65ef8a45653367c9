//! Unions of basic relations (ISL `map`).

use crate::basic_map::BasicMap;
use crate::set::Set;
use crate::space::Space;
use std::fmt;

/// A finite union of [`BasicMap`]s between a common pair of spaces.
#[derive(Clone, PartialEq, Debug)]
pub struct Map {
    in_space: Space,
    out_space: Space,
    parts: Vec<BasicMap>,
}

impl Map {
    /// The empty relation between two spaces.
    pub fn empty(in_space: Space, out_space: Space) -> Self {
        Map {
            in_space,
            out_space,
            parts: Vec::new(),
        }
    }

    /// Builds a relation from basic relations (empty disjuncts are dropped).
    pub fn from_basic_maps(in_space: Space, out_space: Space, parts: Vec<BasicMap>) -> Self {
        let parts = parts
            .into_iter()
            .filter(|p| {
                assert!(
                    p.in_space().compatible(&in_space) && p.out_space().compatible(&out_space),
                    "incompatible disjunct spaces"
                );
                !p.is_empty()
            })
            .collect();
        Map {
            in_space,
            out_space,
            parts,
        }
    }

    /// Wraps a single basic relation.
    pub fn from_basic(m: BasicMap) -> Self {
        Map {
            in_space: m.in_space().clone(),
            out_space: m.out_space().clone(),
            parts: if m.is_empty() { vec![] } else { vec![m] },
        }
    }

    /// The input space.
    pub fn in_space(&self) -> &Space {
        &self.in_space
    }

    /// The output space.
    pub fn out_space(&self) -> &Space {
        &self.out_space
    }

    /// The disjuncts.
    pub fn parts(&self) -> &[BasicMap] {
        &self.parts
    }

    /// Returns true if the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Membership test.
    pub fn contains(&self, input: &[i128], output: &[i128], params: &[(&str, i128)]) -> bool {
        self.parts.iter().any(|p| p.contains(input, output, params))
    }

    /// Union with another relation over compatible spaces.
    pub fn union(&self, other: &Map) -> Map {
        assert!(
            self.in_space.compatible(other.in_space())
                && self.out_space.compatible(other.out_space()),
            "union of incompatible relations"
        );
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// The domain of the relation.
    pub fn domain(&self) -> Set {
        Set::from_basic_sets(
            self.in_space.clone(),
            self.parts.iter().map(|p| p.domain()).collect(),
        )
    }

    /// The range of the relation.
    pub fn range(&self) -> Set {
        Set::from_basic_sets(
            self.out_space.clone(),
            self.parts.iter().map(|p| p.range()).collect(),
        )
    }

    /// The inverse relation.
    pub fn inverse(&self) -> Map {
        Map {
            in_space: self.out_space.clone(),
            out_space: self.in_space.clone(),
            parts: self.parts.iter().map(|p| p.inverse()).collect(),
        }
    }

    /// The image of a set (pairwise over disjuncts).
    pub fn apply(&self, set: &Set) -> Set {
        let mut parts = Vec::new();
        for m in &self.parts {
            for s in set.parts() {
                let img = m.apply(s);
                if !img.is_empty() {
                    parts.push(img);
                }
            }
        }
        Set::from_basic_sets(self.out_space.clone(), parts)
    }

    /// The preimage of a set (`R⁻¹(D)`).
    pub fn preimage(&self, set: &Set) -> Set {
        self.inverse().apply(set)
    }

    /// Sequential composition: `self` then `other`.
    pub fn then(&self, other: &Map) -> Map {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.then(b);
                if !c.is_empty() {
                    parts.push(c);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: other.out_space().clone(),
            parts,
        }
    }

    /// Relation difference `self ∖ other`.
    pub fn subtract(&self, other: &Map) -> Map {
        assert!(
            self.in_space.compatible(other.in_space())
                && self.out_space.compatible(other.out_space()),
            "subtracting incompatible relations"
        );
        let mut current: Vec<BasicMap> = self.parts.clone();
        for b in &other.parts {
            let mut next = Vec::new();
            for a in &current {
                next.extend(a.subtract(b).parts().iter().cloned());
            }
            current = next;
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts: current,
        }
    }

    /// Restricts the domain.
    pub fn intersect_domain(&self, set: &Set) -> Map {
        let mut parts = Vec::new();
        for m in &self.parts {
            for s in set.parts() {
                let r = m.intersect_domain(s);
                if !r.is_empty() {
                    parts.push(r);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// Restricts the range.
    pub fn intersect_range(&self, set: &Set) -> Map {
        let mut parts = Vec::new();
        for m in &self.parts {
            for s in set.parts() {
                let r = m.intersect_range(s);
                if !r.is_empty() {
                    parts.push(r);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// Intersection of two relations.
    pub fn intersect(&self, other: &Map) -> Map {
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let i = a.intersect(b);
                if !i.is_empty() {
                    parts.push(i);
                }
            }
        }
        Map {
            in_space: self.in_space.clone(),
            out_space: self.out_space.clone(),
            parts,
        }
    }

    /// A conservative *under-approximation* of the transitive closure `R⁺`
    /// (one or more steps): exact translation closures of translation
    /// disjuncts, unioned with the relation itself and its two-step
    /// compositions. Only used where an under-approximation of reachability
    /// keeps the derived bound valid (wavefront reasoning).
    pub fn reachability_closure_underapprox(&self) -> Map {
        let mut out = self.clone();
        for p in &self.parts {
            if let Some(c) = p.reachability_closure() {
                out = out.union(&Map::from_basic(c));
            }
        }
        // Add two-step compositions of the original relation.
        if self.in_space.compatible(&self.out_space) {
            let two = self.then(self);
            out = out.union(&two);
        }
        out
    }

    /// Returns true when every disjunct is an injective relation.
    pub fn is_injective(&self) -> bool {
        !self.parts.is_empty() && self.parts.iter().all(|p| p.is_injective())
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{{ {} -> {} : false }}", self.in_space, self.out_space);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Constraint, LinExpr};
    use crate::basic_set::BasicSet;
    use crate::EngineCtx;

    fn space2() -> Space {
        Space::new("S", &["t", "i"])
    }

    fn chain() -> BasicMap {
        BasicMap::translation(space2(), &[1, 0])
            .constrain_in_ge_const(0, 0)
            .constrain_in_lt_param_minus(0, "M", 1)
            .constrain_in_ge_const(1, 0)
            .constrain_in_lt_param_minus(1, "N", 0)
    }

    fn diag() -> BasicMap {
        BasicMap::translation(space2(), &[1, 1])
            .constrain_in_ge_const(0, 0)
            .constrain_in_lt_param_minus(0, "M", 1)
            .constrain_in_ge_const(1, 0)
            .constrain_in_lt_param_minus(1, "N", 1)
    }

    #[test]
    fn union_and_membership() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain()).union(&Map::from_basic(diag()));
        let params = [("M", 5i128), ("N", 5i128)];
        assert!(m.contains(&[1, 1], &[2, 1], &params));
        assert!(m.contains(&[1, 1], &[2, 2], &params));
        assert!(!m.contains(&[1, 1], &[3, 1], &params));
        assert_eq!(m.parts().len(), 2);
    }

    #[test]
    fn domain_range_of_union() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain()).union(&Map::from_basic(diag()));
        let d = m.domain();
        assert!(d.contains(&[0, 0], &[("M", 5), ("N", 5)]));
        let r = m.range();
        assert!(r.contains(&[1, 0], &[("M", 5), ("N", 5)]));
        assert!(!r.contains(&[0, 0], &[("M", 5), ("N", 5)]));
    }

    #[test]
    fn apply_union() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain()).union(&Map::from_basic(diag()));
        let slice = BasicSet::universe(space2())
            .fix_dim(0, 0)
            .ge0_var(1)
            .lt_param(1, "N")
            .to_set();
        let img = m.apply(&slice);
        let params = [("M", 5i128), ("N", 5i128)];
        assert!(img.contains(&[1, 2], &params));
        assert!(img.contains(&[1, 3], &params));
        assert!(!img.contains(&[2, 2], &params));
    }

    #[test]
    fn composition_of_unions() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain());
        let mm = m.then(&m);
        assert!(mm.contains(&[0, 1], &[2, 1], &[("M", 5), ("N", 5)]));
        assert!(!mm.contains(&[0, 1], &[1, 1], &[("M", 5), ("N", 5)]));
    }

    #[test]
    fn closure_underapprox_contains_long_hops() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain());
        let star = m.reachability_closure_underapprox();
        let params = [("M", 8i128), ("N", 3i128)];
        assert!(star.contains(&[0, 1], &[1, 1], &params));
        assert!(star.contains(&[0, 1], &[6, 1], &params));
        assert!(!star.contains(&[3, 1], &[3, 1], &params));
    }

    #[test]
    fn injectivity_of_union() {
        let _session = EngineCtx::new().enter();
        let m = Map::from_basic(chain()).union(&Map::from_basic(diag()));
        assert!(m.is_injective());
        // A broadcast relation is not injective.
        let arity = 3;
        let bcast = BasicMap::from_constraints(
            Space::new("C", &["t"]),
            space2(),
            vec![
                Constraint::eq(LinExpr::var(arity, 1).sub(&LinExpr::var(arity, 0))),
                Constraint::ge0(LinExpr::var(arity, 2)),
            ],
        );
        assert!(!Map::from_basic(bcast).is_injective());
    }

    #[test]
    fn empty_map() {
        let _session = EngineCtx::new().enter();
        let e = Map::empty(space2(), space2());
        assert!(e.is_empty());
        assert!(e.domain().is_empty());
        let m = Map::from_basic(chain());
        assert!(!m.intersect(&m).is_empty());
    }
}
