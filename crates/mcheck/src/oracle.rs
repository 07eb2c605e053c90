//! Oracles: invariants checked after every transition of an explored run.
//!
//! An oracle sees the whole [`Engine`] and may inspect actors (via
//! [`Engine::actor_as`]) and metrics. Oracles are constructed fresh for
//! every schedule, so they may carry per-run state (e.g. the last observed
//! value of a counter that must be monotone).

use sim_core::engine::Engine;

/// A checkable invariant. `check` runs after every dispatched event;
/// `at_end` runs once when the run completes (not when it is aborted by an
/// earlier violation).
pub trait Oracle {
    /// Stable name, used to identify the violation class in reports and for
    /// the DPOR-vs-DFS equivalence comparison.
    fn name(&self) -> &str;

    /// Check the invariant; `Err` carries a human-readable description of
    /// the violation.
    fn check(&mut self, engine: &Engine) -> Result<(), String>;

    /// End-of-run check, for invariants that only settle at completion
    /// (e.g. "every replay script fully consumed").
    fn at_end(&mut self, engine: &Engine) -> Result<(), String> {
        let _ = engine;
        Ok(())
    }
}

/// A boxed invariant-checking closure, as stored by [`FnOracle`].
pub type CheckFn = Box<dyn FnMut(&Engine) -> Result<(), String>>;

/// Closure-backed oracle, the convenient way for a model crate to encode
/// domain invariants without a named type per invariant.
pub struct FnOracle {
    name: String,
    step: CheckFn,
}

impl FnOracle {
    /// Oracle checked after every transition.
    pub fn new(
        name: impl Into<String>,
        step: impl FnMut(&Engine) -> Result<(), String> + 'static,
    ) -> FnOracle {
        FnOracle { name: name.into(), step: Box::new(step) }
    }
}

impl Oracle for FnOracle {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, engine: &Engine) -> Result<(), String> {
        (self.step)(engine)
    }
}

/// An oracle asserting a metrics counter stays zero — the shape of most
/// "this must never happen" invariants (digest mismatches, stale gets under
/// a logging protocol, ...).
pub struct CounterZero {
    name: String,
    counter: String,
}

impl CounterZero {
    /// Watch `counter` in the engine metrics registry.
    pub fn new(name: impl Into<String>, counter: impl Into<String>) -> CounterZero {
        CounterZero { name: name.into(), counter: counter.into() }
    }
}

impl Oracle for CounterZero {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, engine: &Engine) -> Result<(), String> {
        let v = engine.metrics().counter(&self.counter);
        if v == 0 {
            Ok(())
        } else {
            Err(format!("counter {} = {v}, expected 0", self.counter))
        }
    }
}

/// Cross-shard conservation: every key must live on exactly one owner.
///
/// `owned` is the flattened `(owner, key)` population collected from a
/// sharded fleet (a key may repeat *within* an owner — replayed redundant
/// writes do that legitimately). Returns `Err` naming the first key claimed
/// by two different owners. Pure so both the DES oracle and threaded test
/// harnesses can share it.
pub fn disjoint_owners<K: Ord + std::fmt::Debug>(
    owned: impl IntoIterator<Item = (usize, K)>,
) -> Result<(), String> {
    let mut owner_of: std::collections::BTreeMap<K, usize> = std::collections::BTreeMap::new();
    for (owner, key) in owned {
        match owner_of.get(&key) {
            None => {
                owner_of.insert(key, owner);
            }
            Some(&prev) if prev != owner => {
                return Err(format!("piece {key:?} served by two shards: {prev} and {owner}"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_zero_trips_on_increment() {
        let mut eng = Engine::new(1);
        let mut o = CounterZero::new("no-mismatch", "x.mismatches");
        assert!(o.check(&eng).is_ok());
        eng.metrics_mut().inc("x.mismatches", 2);
        let err = o.check(&eng).unwrap_err();
        assert!(err.contains("x.mismatches = 2"), "{err}");
    }

    #[test]
    fn disjoint_owners_accepts_repeats_within_one_shard() {
        assert!(disjoint_owners([(0, "a"), (0, "a"), (1, "b")]).is_ok());
        assert!(disjoint_owners(Vec::<(usize, u64)>::new()).is_ok());
    }

    #[test]
    fn disjoint_owners_rejects_a_key_on_two_shards() {
        let err = disjoint_owners([(0, "a"), (1, "a")]).unwrap_err();
        assert!(err.contains("two shards: 0 and 1"), "{err}");
    }

    #[test]
    fn fn_oracle_carries_state() {
        let mut last = 0u64;
        let mut o = FnOracle::new("monotone", move |e: &Engine| {
            let v = e.metrics().counter("m");
            if v < last {
                return Err(format!("counter m regressed: {v} < {last}"));
            }
            last = v;
            Ok(())
        });
        let eng = Engine::new(1);
        assert!(o.check(&eng).is_ok());
        assert_eq!(o.name(), "monotone");
    }
}
