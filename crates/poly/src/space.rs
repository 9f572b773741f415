//! The interned dimension space shared by every expression and constraint.
//!
//! Dimension and parameter names are interned exactly once into a global
//! `SymbolTable`; everything downstream of the DSL manipulates compact
//! [`DimId`]s (a `u32`). This is the isl-style "space" trick: expressions
//! become coefficient rows over interned ids instead of string-keyed
//! trees, so the Fourier–Motzkin / dependence hot path never touches a
//! `String` and never allocates per-term tree nodes.
//!
//! The table is append-only and process-global: a name, once interned,
//! keeps its id for the lifetime of the process, and `name()` hands back a
//! `&'static str` (names are leaked — the name population is the loop
//! iterators and parameters of the compiled designs, which is small and
//! bounded). Because the table only ever grows, each thread keeps a local
//! mirror of it: `name()`, `lookup()`, and the fast path of `intern()`
//! run against the mirror without touching the global `RwLock`, and the
//! mirror is refreshed from the global table only when it is found to be
//! stale.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned dimension (or parameter) name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(u32);

impl DimId {
    /// Interns `name`, returning its stable id.
    pub fn intern(name: &str) -> DimId {
        if let Some(id) = LOCAL.with(|l| l.borrow().map.get(name).copied()) {
            return DimId(id);
        }
        // Not in the thread mirror: refresh it, then intern globally if
        // the name is genuinely new.
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.refresh();
            if let Some(&id) = l.map.get(name) {
                return DimId(id);
            }
            let id = intern_global(name);
            l.refresh();
            DimId(id)
        })
    }

    /// Looks a name up without interning it. Returns `None` for names the
    /// process has never seen — used by read paths (`coeff`, `uses`) so
    /// queries for unknown names do not grow the table.
    pub fn lookup(name: &str) -> Option<DimId> {
        LOCAL.with(|l| {
            if let Some(&id) = l.borrow().map.get(name) {
                return Some(DimId(id));
            }
            let mut l = l.borrow_mut();
            if !l.stale() {
                return None;
            }
            l.refresh();
            l.map.get(name).map(|&id| DimId(id))
        })
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        LOCAL.with(|l| {
            let i = self.0 as usize;
            if let Some(&n) = l.borrow().names.get(i) {
                return n;
            }
            let mut l = l.borrow_mut();
            l.refresh();
            l.names[i]
        })
    }

    /// The raw id, for dense indexing.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// A placeholder id for array initialization; never dereferenced.
    #[inline]
    pub(crate) const fn placeholder() -> DimId {
        DimId(0)
    }
}

impl fmt::Display for DimId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The master table. `names` and the leaked `&'static str` keys are
/// append-only, so thread mirrors stay valid forever once copied.
struct SymbolTable {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn symbol_table() -> &'static RwLock<SymbolTable> {
    static TABLE: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(SymbolTable {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

fn intern_global(name: &str) -> u32 {
    let mut w = symbol_table().write().expect("symbol table");
    if let Some(&id) = w.map.get(name) {
        return id;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let id = w.names.len() as u32;
    w.names.push(leaked);
    w.map.insert(leaked, id);
    id
}

/// A per-thread mirror of the global table. Reads hit the mirror
/// lock-free; `refresh` copies any entries the global table gained since.
#[derive(Default)]
struct LocalTable {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

impl LocalTable {
    fn refresh(&mut self) {
        let t = symbol_table().read().expect("symbol table");
        for (i, &n) in t.names.iter().enumerate().skip(self.names.len()) {
            self.names.push(n);
            self.map.insert(n, i as u32);
        }
    }

    fn stale(&self) -> bool {
        self.names.len() < symbol_table().read().expect("symbol table").names.len()
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTable> = RefCell::new(LocalTable::default());
}

/// Errors of the polyhedral kernel.
///
/// The kernel's hot-path arithmetic is overflow-checked: rather than
/// silently wrapping (the release-mode default for `i64`), coefficient
/// math that leaves `i64` range surfaces as [`PolyError::Overflow`]
/// through the `try_*` entry points, or as a panic through the infallible
/// convenience wrappers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolyError {
    /// A coefficient or constant overflowed `i64` during expression
    /// arithmetic, substitution, or Fourier–Motzkin combination.
    Overflow,
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::Overflow => write!(
                f,
                "coefficient arithmetic overflowed i64 in the polyhedral kernel"
            ),
        }
    }
}

impl std::error::Error for PolyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_named() {
        let a = DimId::intern("space_test_a");
        let b = DimId::intern("space_test_b");
        assert_ne!(a, b);
        assert_eq!(a, DimId::intern("space_test_a"));
        assert_eq!(a.name(), "space_test_a");
        assert_eq!(DimId::lookup("space_test_b"), Some(b));
        assert_eq!(DimId::lookup("space_test_never_interned"), None);
    }

    #[test]
    fn cross_thread_ids_agree() {
        let a = DimId::intern("space_test_threaded");
        let b = std::thread::spawn(|| DimId::intern("space_test_threaded"))
            .join()
            .expect("thread");
        assert_eq!(a, b);
        // A name interned on another thread resolves here too.
        let c = std::thread::spawn(|| DimId::intern("space_test_other_thread"))
            .join()
            .expect("thread");
        assert_eq!(c.name(), "space_test_other_thread");
        assert_eq!(DimId::lookup("space_test_other_thread"), Some(c));
    }
}
