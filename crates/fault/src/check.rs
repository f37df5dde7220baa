//! The repo's one property-test driver: seeded cases, greedy shrinking.

use crate::SplitMix64;
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while [`check`] probes a case on this thread: the panic hook
    /// stays silent, the message comes back to the driver instead.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

/// Checks `holds` on one generated case per number in `cases`.
///
/// A case is a pure function of its number: `generate` draws it from
/// `SplitMix64::new(case)` as fixed parameters plus a script (a list of
/// steps; empty for a property that has none). `holds` asserts — a panic
/// is a failure. The first failing case is shrunk by deleting one step at
/// a time for as long as it still fails, and the driver then panics with
/// the case number, the parameters, the shrunk script and what that
/// script's failure said; `n..n + 1` replays case `n` alone.
pub fn check<P: Debug, T: Clone + Debug>(
    cases: Range<u64>,
    generate: impl Fn(&mut SplitMix64) -> (P, Vec<T>),
    holds: impl Fn(&P, &[T]),
) {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PROBING.get() {
                default(info);
            }
        }));
    });
    // The failure's message, when the property fails on `script`.
    let failure = |params: &P, script: &[T]| {
        PROBING.set(true);
        let outcome = catch_unwind(AssertUnwindSafe(|| holds(params, script)));
        PROBING.set(false);
        let payload = outcome.err()?;
        let text = payload.downcast_ref::<String>().map(String::as_str);
        Some(
            text.or(payload.downcast_ref::<&str>().copied())
                .unwrap_or("")
                .to_string(),
        )
    };
    for case in cases {
        let (params, mut script) = generate(&mut SplitMix64::new(case));
        let Some(mut said) = failure(&params, &script) else {
            continue;
        };
        let generated = script.len();
        // Passes of delete-one until a whole pass deletes nothing.
        loop {
            let before = script.len();
            let mut i = 0;
            while i < script.len() {
                let mut shorter = script.clone();
                shorter.remove(i);
                match failure(&params, &shorter) {
                    Some(message) => (script, said) = (shorter, message),
                    None => i += 1,
                }
            }
            if script.len() == before {
                break;
            }
        }
        let listing: String = script.iter().map(|t| format!("\n  {t:?}")).collect();
        panic!(
            "case {case} fails: {said}\nparameters {params:?}; {generated} steps shrunk to {}:{listing}",
            script.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits(rng: &mut SplitMix64) -> ((), Vec<u64>) {
        ((), (0..40).map(|_| rng.below(10)).collect())
    }

    #[test]
    fn a_property_that_holds_runs_every_case() {
        let ran = std::cell::Cell::new(0);
        check(0..50, digits, |_, s| {
            ran.set(ran.get() + 1);
            assert!(s.iter().all(|&d| d < 10));
        });
        assert_eq!(ran.get(), 50);
    }

    #[test]
    fn a_failure_names_its_case_and_shrinks_to_the_steps_that_matter() {
        // "No 7 is ever followed, at any distance, by a 3."
        let holds = |_: &(), s: &[u64]| {
            let seven = s.iter().position(|&d| d == 7);
            assert!(!seven.is_some_and(|i| s[i..].contains(&3)));
        };
        let fails = |c: &u64| holds(&(), &digits(&mut SplitMix64::new(*c)).1);
        let first = (0..).find(|c| catch_unwind(|| fails(c)).is_err());
        let panic = catch_unwind(|| check(0..1000, digits, holds)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.starts_with(&format!("case {} fails: assertion failed", first.unwrap())),
            "{msg}"
        );
        assert!(msg.ends_with("40 steps shrunk to 2:\n  7\n  3"), "{msg}");
    }
}
