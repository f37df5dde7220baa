//! One declaration per counter and per keyed enum: [`Counter`], the
//! workspace's one storage type for a statistic; [`counters!`](crate::counters),
//! which turns a list of names into the struct that holds them; and
//! [`keyed_enum!`](crate::keyed_enum), which turns `Variant = "key"` rows
//! into the enum that indexes a [`Per`] family of them and names its keys.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Stripes per counter group. Threads are dealt stripes round-robin, so
/// up to this many counting threads never write a line another one
/// writes; beyond that, stripes are shared and counts stay exact.
const STRIPES: usize = 8;

/// Counters per cache line.
const LINE_CELLS: usize = 8;

#[repr(align(64))]
struct Line([AtomicU64; LINE_CELLS]);

thread_local! {
    /// The calling thread's stripe, dealt the first time it counts.
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

/// A statistics counter that threads bump without sharing a cache line
/// (the per-CPU counter of a kernel). Counters are made in groups; a
/// group's storage is a few stripes, each holding every counter of
/// the group side by side on cache lines no other stripe occupies.
/// `fetch_add` goes to the calling thread's stripe, `load` sums the
/// stripes, `store` overwrites them all. The `Ordering` parameters keep
/// call sites source-compatible with `AtomicU64`; a statistic orders
/// nothing, so `Relaxed` is all they need. A clone is a second handle
/// on the same cells.
#[derive(Clone)]
pub struct Counter {
    /// The group's cells, stripe-major: `STRIPES` runs of whole lines.
    lines: Arc<[Line]>,
    /// This counter's cell within each stripe.
    idx: usize,
}

impl Counter {
    /// `n` zeroed counters over one set of stripes, so a thread that
    /// bumps several of them per event dirties one or two lines of its
    /// own, and the group costs ⌈`n`/8⌉ lines per stripe.
    pub fn group_of(n: usize) -> impl Iterator<Item = Counter> {
        let lines: Arc<[Line]> = (0..STRIPES * n.div_ceil(LINE_CELLS))
            .map(|_| Line(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect();
        (0..n).map(move |idx| Counter {
            lines: lines.clone(),
            idx,
        })
    }

    /// [`group_of`](Counter::group_of) as an array.
    pub fn group<const N: usize>() -> [Counter; N] {
        let mut cells = Counter::group_of(N);
        std::array::from_fn(|_| cells.next().expect("a group of N yields N"))
    }

    #[inline]
    fn cell(&self, stripe: usize) -> &AtomicU64 {
        let lines_per_stripe = self.lines.len() / STRIPES;
        let line = stripe * lines_per_stripe + self.idx / LINE_CELLS;
        &self.lines[line].0[self.idx % LINE_CELLS]
    }

    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn fetch_add(&self, n: u64, order: Ordering) {
        self.cell(STRIPE.with(|s| *s)).fetch_add(n, order);
    }

    /// The counter's value: the sum of its stripes.
    pub fn load(&self, order: Ordering) -> u64 {
        (0..STRIPES).fold(0u64, |sum, s| sum.wrapping_add(self.cell(s).load(order)))
    }

    /// Sets the counter to `v` (zero resets every stripe).
    pub fn store(&self, v: u64, order: Ordering) {
        self.cell(0).store(v, order);
        for s in 1..STRIPES {
            self.cell(s).store(0, order);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.load(Ordering::Relaxed).fmt(f)
    }
}

/// An enum whose variants index arrays and name export keys;
/// [`keyed_enum!`](crate::keyed_enum) writes the impl.
pub trait Keyed: Copy + 'static {
    /// Every variant, in index order.
    const ALL: &'static [Self];
    /// The variant's position in [`ALL`](Keyed::ALL).
    fn idx(self) -> usize;
    /// Stable snake_case key used in exports.
    fn key(self) -> &'static str;
}

/// A [`Counter`] or a structure of them: what a
/// [`counters!`](crate::counters) field may be. An export key is the
/// concatenation of the keys on the way down to the counter.
pub trait Cells: Sized {
    /// Counters in one value.
    const N: usize;
    /// Builds a value from the next `N` cells of a group.
    fn take(cells: &mut dyn Iterator<Item = Counter>) -> Self;
    /// Visits every counter with its export key: what `key` holds on
    /// entry, then this value's own part (`key` is restored on return).
    fn each(&self, key: &mut String, f: &mut dyn FnMut(&str, &Counter));

    /// A zeroed value whose counters share one group.
    fn fresh() -> Self {
        Self::take(&mut Counter::group_of(Self::N))
    }
    /// Zeroes every counter.
    fn reset(&self) {
        self.each(&mut String::new(), &mut |_, c| {
            c.store(0, Ordering::Relaxed)
        });
    }
    /// `(key, value)` of every counter, in declaration order.
    fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(Self::N);
        self.each(&mut String::new(), &mut |key, c| {
            out.push((key.to_string(), c.load(Ordering::Relaxed)))
        });
        out
    }
}

impl Cells for Counter {
    const N: usize = 1;
    fn take(cells: &mut dyn Iterator<Item = Counter>) -> Self {
        cells.next().expect("the group was sized by Cells::N")
    }
    fn each(&self, key: &mut String, f: &mut dyn FnMut(&str, &Counter)) {
        f(key, self)
    }
}

/// `part` appended to `key` for the length of `visit`: how a level of
/// the way down adds its piece of an export key.
#[doc(hidden)]
pub fn key_part(key: &mut String, part: &str, visit: impl FnOnce(&mut String)) {
    let len = key.len();
    key.push_str(part);
    visit(key);
    key.truncate(len);
}

/// One `T` per variant of the keyed enum `E`, indexed by the variant.
/// Each `T`'s export keys gain its variant's key.
#[derive(Debug, Clone)]
pub struct Per<E, T>(Box<[T]>, PhantomData<fn(E)>);

impl<E: Keyed, T> std::ops::Index<E> for Per<E, T> {
    type Output = T;
    #[inline]
    fn index(&self, e: E) -> &T {
        &self.0[e.idx()]
    }
}

impl<E: Keyed, T: Cells> Cells for Per<E, T> {
    const N: usize = E::ALL.len() * T::N;
    fn take(cells: &mut dyn Iterator<Item = Counter>) -> Self {
        Per(E::ALL.iter().map(|_| T::take(cells)).collect(), PhantomData)
    }
    fn each(&self, key: &mut String, f: &mut dyn FnMut(&str, &Counter)) {
        for (e, t) in E::ALL.iter().zip(self.0.iter()) {
            key_part(key, e.key(), |key| t.each(key, f));
        }
    }
}

/// Declares a struct of counters, each written once: the line is the
/// field, its zeroing, and its export key.
///
/// ```
/// dc_obs::keyed_enum! { pub enum Gear { Low = "low", High = "high" } }
/// dc_obs::counters! {
///     /// What the widget did (`widget` section).
///     pub struct WidgetStats = "widget" {
///         /// Turns made.
///         pub turns,
///         /// Turns per gear; exported as `gear_low`, `gear_high`.
///         pub gears: dc_obs::Per<Gear, dc_obs::Counter> = "gear_",
///     }
/// }
/// let w = WidgetStats::default();
/// w.gears[Gear::High].fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(w.counters()[2], ("gear_high".to_string(), 2));
/// ```
///
/// A field is a [`Counter`] keyed by its own name unless it says
/// otherwise (`name: Type = "key"`, the type any [`Cells`]). `= "section"`
/// after the struct's name makes it a [`MetricSource`](crate::MetricSource),
/// `rates(a, b)` exporting its methods `a` and `b` as ratios; `=> Twin`
/// after the body also declares `Twin`, the same fields as plain `u64`s,
/// and `values()` to read one. A clone shares the original's cells.
#[macro_export]
macro_rules! counters {
    (@ty) => { $crate::Counter };
    (@ty $T:ty) => { $T };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    ($(#[$sm:meta])* $vis:vis struct $S:ident = $section:literal $(rates($($rate:ident),+))?
        { $($body:tt)* } $(=> $V:ident)?) => {
        $crate::counters! { $(#[$sm])* $vis struct $S { $($body)* } $(=> $V)? }
        impl $crate::MetricSource for $S {
            fn name(&self) -> &'static str { $section }
            fn counters(&self) -> Vec<(String, u64)> { $crate::Cells::counters(self) }
            fn rates(&self) -> Vec<(&'static str, f64)> {
                vec![$($((stringify!($rate), self.$rate())),+)?]
            }
            fn reset(&self) { $crate::Cells::reset(self) }
        }
    };
    ($(#[$sm:meta])* $vis:vis struct $S:ident
        { $($(#[$fm:meta])* $fv:vis $f:ident),+ $(,)? } => $V:ident) => {
        $crate::counters! { $(#[$sm])* $vis struct $S { $($(#[$fm])* $fv $f),+ } }
        #[doc = concat!("The values of a [`", stringify!($S), "`] at one instant.")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $V { $($(#[$fm])* pub $f: u64,)+ }
        impl $S {
            /// Reads every counter.
            pub fn values(&self) -> $V {
                $V { $($f: self.$f.load(std::sync::atomic::Ordering::Relaxed),)+ }
            }
        }
        impl $V {
            /// `(key, value)` of every field, in declaration order.
            pub fn counters(&self) -> Vec<(String, u64)> {
                vec![$((stringify!($f).to_string(), self.$f),)+]
            }
        }
    };
    ($(#[$sm:meta])* $vis:vis struct $S:ident
        { $($(#[$fm:meta])* $fv:vis $f:ident $(: $T:ty)? $(= $key:literal)?),+ $(,)? }) => {
        $(#[$sm])*
        #[derive(Debug, Clone)]
        $vis struct $S { $($(#[$fm])* $fv $f: $crate::counters!(@ty $($T)?),)+ }
        impl $crate::Cells for $S {
            const N: usize = 0 $(+ <$crate::counters!(@ty $($T)?) as $crate::Cells>::N)+;
            fn take(cells: &mut dyn Iterator<Item = $crate::Counter>) -> Self {
                $S { $($f: $crate::Cells::take(cells),)+ }
            }
            fn each(&self, key: &mut String, f: &mut dyn FnMut(&str, &$crate::Counter)) {
                $($crate::key_part(key, $crate::counters!(@key $f $($key)?), |key| {
                    $crate::Cells::each(&self.$f, key, f)
                });)+
            }
        }
        impl Default for $S {
            fn default() -> Self { $crate::Cells::fresh() }
        }
        #[allow(dead_code)] // a private struct may call neither
        impl $S {
            /// Zeroes every counter.
            pub fn reset(&self) { $crate::Cells::reset(self) }
            /// `(key, value)` of every counter, in declaration order.
            pub fn counters(&self) -> Vec<(String, u64)> { $crate::Cells::counters(self) }
        }
    };
}

/// Declares an enum whose variants are each written once, as
/// `Variant = "key"`: the row is the variant, its place in `ALL`, its
/// `idx` and its `key`. With `of Source` after the name each row also
/// carries the `Source` pattern it stands for (`Variant = "key" for
/// pattern`) and `of(&Source)` is generated — a `Source` variant without
/// a row does not compile.
#[macro_export]
macro_rules! keyed_enum {
    ($(#[$em:meta])* $vis:vis enum $E:ident of $Src:ty
        { $($(#[$vm:meta])* $V:ident = $key:literal for $pat:pat),+ $(,)? }) => {
        $crate::keyed_enum! { $(#[$em])* $vis enum $E {
            $($(#[$vm])* #[doc = concat!("`", stringify!($pat), "`.")] $V = $key),+
        } }
        impl $E {
            /// The variant `src` falls under.
            #[inline]
            pub fn of(src: &$Src) -> $E {
                match src { $($pat => $E::$V,)+ }
            }
        }
    };
    ($(#[$em:meta])* $vis:vis enum $E:ident
        { $($(#[$vm:meta])* $V:ident = $key:literal),+ $(,)? }) => {
        $(#[$em])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $E { $($(#[$vm])* $V,)+ }
        impl $E {
            /// Every variant, in index order.
            pub const ALL: &'static [$E] = &[$($E::$V),+];
            /// The variant's position in `ALL`.
            #[inline]
            pub fn idx(self) -> usize { self as usize }
            /// Stable snake_case key used in exports and reports.
            pub fn key(self) -> &'static str {
                match self { $($E::$V => $key,)+ }
            }
        }
        impl $crate::Keyed for $E {
            const ALL: &'static [$E] = <$E>::ALL;
            fn idx(self) -> usize { self as usize }
            fn key(self) -> &'static str { <$E>::key(self) }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `threads` threads, released together, each adding 1 to `a` and 2
    /// to `b` `each` times.
    fn hammer(a: &Counter, b: &Counter, threads: usize, each: u64) {
        let go = std::sync::Barrier::new(threads);
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(|| {
                    go.wait();
                    for _ in 0..each {
                        a.fetch_add(1, Ordering::Relaxed);
                        b.fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
    }

    #[test]
    fn more_threads_than_stripes_still_count_exactly() {
        let [a, b] = Counter::group();
        hammer(&a, &b, 3 * STRIPES, 20_000);
        assert_eq!(a.load(Ordering::Relaxed), 3 * STRIPES as u64 * 20_000);
        assert_eq!(b.load(Ordering::Relaxed), 3 * STRIPES as u64 * 40_000);
    }

    #[test]
    fn reset_zeroes_every_stripe() {
        let cells: [Counter; 38] = Counter::group();
        let (first, last) = (&cells[0], &cells[37]);
        for i in 0..STRIPES {
            first.cell(i).store(5, Ordering::Relaxed);
            last.cell(i).store(7, Ordering::Relaxed);
        }
        assert_eq!(first.load(Ordering::Relaxed), 5 * STRIPES as u64);
        for c in &cells {
            Cells::reset(c);
        }
        for i in 0..STRIPES {
            assert_eq!(first.cell(i).load(Ordering::Relaxed), 0);
            assert_eq!(last.cell(i).load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn stripes_do_not_share_cache_lines() {
        let [a, _b, _c] = Counter::group();
        assert_eq!(std::mem::align_of::<Line>(), 64);
        let (s0, s1) = (a.cell(0) as *const AtomicU64, a.cell(1) as *const AtomicU64);
        assert_eq!(s0 as usize % 64, 0);
        assert_eq!(s1 as usize - s0 as usize, 64);
        // 38 counters (the dcache's): five lines per stripe, 2.5 KiB in all.
        let cells: [Counter; 38] = Counter::group();
        assert_eq!(cells[0].lines.len() * 64, STRIPES * 5 * 64);
    }
}
