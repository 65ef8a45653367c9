//! Session-scoped string interner for program-parameter names.
//!
//! Every parameter name (`N`, `M`, `S`, `Omega0`, …) occurring in a
//! [`crate::LinExpr`] is interned once into its session's [`ParamTable`] and
//! referred to by a compact [`ParamId`] afterwards. This removes per-name
//! heap allocation and string comparison from the innermost loops of
//! Fourier–Motzkin elimination, entailment pruning and symbolic counting: a
//! parameter-coefficient list is a small sorted `Vec<(ParamId, i128)>` whose
//! merge is a branchy but allocation-light two-pointer walk over compact
//! keys.
//!
//! Affine programs mention a handful of parameters, so the table stays tiny;
//! it is never garbage-collected (it dies with its
//! [`EngineCtx`](crate::engine::EngineCtx)). Interning order (and hence
//! `ParamId` ordering) depends on first-use order and may differ between
//! sessions and runs — any code that renders names to users must therefore
//! sort by *name*, not by id (see [`ParamTable::sort_ids_by_name`]).
//!
//! A `ParamId` additionally records which session minted it, so resolving an
//! id in the wrong session panics instead of silently aliasing another name.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A compact handle to an interned parameter name: the minting session's id
/// in the high 32 bits, the table index in the low 32 — one `u64`, so the
/// hot-path compares and hashes (sorted merges in [`crate::LinExpr`], the
/// fingerprints of [`crate::fxhash`]) cost the same as a machine word.
///
/// Ids order by `(session, index)`; any fixed total order is enough for the
/// sorted-merge invariants, but the order is **not** the name order — sort
/// by name for display.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(u64);

impl ParamId {
    pub(crate) fn pack(session: u32, index: u32) -> Self {
        ParamId(((session as u64) << 32) | index as u64)
    }

    /// The raw index into the owning session's [`ParamTable`].
    pub fn index(self) -> u32 {
        self.0 as u32
    }

    /// The id of the session that minted this id.
    pub fn session(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The interned name this id refers to, resolved against the **ambient**
    /// session.
    ///
    /// # Panics
    ///
    /// Panics if the ambient session is not the one that minted the id; use
    /// [`crate::engine::EngineCtx::resolve`] to resolve explicitly.
    pub fn name(self) -> Arc<str> {
        crate::engine::EngineCtx::with_current(|e| e.resolve(self))
    }
}

impl std::fmt::Debug for ParamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Resilient: a foreign id, or one formatted outside every session,
        // renders its raw coordinates instead of panicking mid-debug-dump.
        match crate::engine::EngineCtx::try_current().and_then(|e| e.try_resolve(*self)) {
            Some(name) => write!(f, "ParamId({} = {:?})", self.index(), &*name),
            None => write!(f, "ParamId(s{}:{})", self.session(), self.index()),
        }
    }
}

struct TableInner {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

/// One session's parameter table: a bidirectional `name ↔ ParamId` mapping
/// with a hard capacity.
pub struct ParamTable {
    session: u32,
    capacity: usize,
    inner: RwLock<TableInner>,
}

impl ParamTable {
    /// Creates an empty table owned by session `session`, holding at most
    /// `capacity` names.
    pub(crate) fn new(session: u32, capacity: usize) -> Self {
        ParamTable {
            session,
            capacity,
            inner: RwLock::new(TableInner {
                names: Vec::new(),
                index: HashMap::new(),
            }),
        }
    }

    /// Interns a name, returning its stable id (idempotent).
    ///
    /// # Panics
    ///
    /// Panics when the table's capacity is exhausted.
    pub fn intern(&self, name: &str) -> ParamId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let mut t = self.inner.write().unwrap();
        if let Some(&i) = t.index.get(name) {
            return ParamId::pack(self.session, i);
        }
        assert!(
            t.names.len() < self.capacity,
            "engine session interner capacity ({}) exhausted",
            self.capacity
        );
        let i = u32::try_from(t.names.len()).expect("parameter table overflow");
        let arc: Arc<str> = Arc::from(name);
        t.names.push(arc.clone());
        t.index.insert(arc, i);
        ParamId::pack(self.session, i)
    }

    /// Looks a name up without interning it (read-lock only).
    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        let t = self.inner.read().unwrap();
        t.index.get(name).map(|&i| ParamId::pack(self.session, i))
    }

    /// Resolves an id back to its name.
    ///
    /// # Panics
    ///
    /// Panics if the id was minted by a different engine session.
    pub fn resolve(&self, id: ParamId) -> Arc<str> {
        self.try_resolve(id).unwrap_or_else(|| {
            panic!(
                "ParamId(s{}:{}) resolved against a different engine session (s{})",
                id.session(),
                id.index(),
                self.session
            )
        })
    }

    /// Resolves an id if it belongs to this table's session.
    pub fn try_resolve(&self, id: ParamId) -> Option<Arc<str>> {
        if id.session() != self.session {
            return None;
        }
        let t = self.inner.read().unwrap();
        t.names.get(id.index() as usize).cloned()
    }

    /// Sorts a list of ids by their *names* (the deterministic, user-visible
    /// order; id order depends on first-use order and is not stable across
    /// sessions or runs).
    ///
    /// # Panics
    ///
    /// Panics (in release builds too) if any id was minted by a different
    /// engine session — sorting by a foreign table would silently alias
    /// names, which must fail loudly instead.
    pub fn sort_ids_by_name(&self, ids: &mut [ParamId]) {
        for id in ids.iter() {
            assert!(
                id.session() == self.session,
                "ParamId(s{}:{}) sorted against a different engine session (s{})",
                id.session(),
                id.index(),
                self.session
            );
        }
        let t = self.inner.read().unwrap();
        ids.sort_by(|a, b| t.names[a.index() as usize].cmp(&t.names[b.index() as usize]));
    }

    /// Number of names interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().names.len()
    }

    /// True when no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineCtx;

    #[test]
    fn intern_is_idempotent() {
        let e = EngineCtx::new();
        let a = e.intern("A");
        let b = e.intern("A");
        assert_eq!(a, b);
        assert_eq!(&*e.resolve(a), "A");
    }

    #[test]
    fn lookup_does_not_intern() {
        let e = EngineCtx::new();
        assert!(e.lookup("never_interned").is_none());
        let id = e.intern("B");
        assert_eq!(e.lookup("B"), Some(id));
        assert_eq!(e.interned_params(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let e = EngineCtx::new();
        assert_ne!(e.intern("C"), e.intern("D"));
    }

    #[test]
    fn sorting_by_name_is_lexicographic() {
        let e = EngineCtx::new();
        let z = e.intern("zz");
        let a = e.intern("aa");
        let mut ids = vec![z, a];
        e.sort_ids_by_name(&mut ids);
        assert_eq!(ids, vec![a, z]);
    }

    #[test]
    fn foreign_debug_renders_without_panicking() {
        let e = EngineCtx::new();
        let id = e.intern("N");
        let raw = format!("s{}", e.id());
        // Outside every session, and in a session that did not mint `id`.
        let rendered = format!("{id:?}");
        assert!(rendered.contains(&raw), "{rendered}");
        let rendered = EngineCtx::new().scope(|| format!("{id:?}"));
        assert!(rendered.contains(&raw), "{rendered}");
    }
}
