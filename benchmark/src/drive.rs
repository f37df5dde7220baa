//! The closed-loop driver: one thread per actor, warm-up, then timed
//! windows. Every caller of a VFS or of a metadata RPC waits for the
//! reply, so an actor issues its next operation only when the previous
//! one has completed.
//!
//! Throughput comes from window wall time. Latency is taken with
//! `Instant` on one operation in [`SAMPLE_EVERY`], so the clock's cost
//! (reported as `bench.clock_ns`) stays out of `ops_per_s`. In a traced
//! window one operation in [`TRACE_EVERY`] additionally records spans.

use crate::oracle::Digest;
use crate::rng::Rng;
use crate::span::Tracer;
use std::time::{Duration, Instant};

/// Latency is sampled on one operation in this many, unless the actor
/// says its operations are slow enough to time every one.
pub const SAMPLE_EVERY: u64 = 8;
/// Spans are recorded on one operation in this many (traced windows).
pub const TRACE_EVERY: u64 = 64;
/// Samples kept per window and class. A fixed-size reservoir, so the
/// harness's memory does not grow with the speed of what it measures
/// and `peak_rss_mib` keeps describing the program.
pub const RESERVOIR: usize = 1 << 14;

/// What kind of operation a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Read-only path operations (`stat`, `open`+`close`, `access`, ...);
    /// on the wire, a frame that carries a single request.
    Lookup = 0,
    /// `create`, `unlink`, file `rename`.
    Mutate = 1,
    /// `rename` of a directory with cached descendants (a structural
    /// shootdown: seq bumps plus DLHT eviction).
    DirMutate = 2,
    /// `list_dir`; the sample is nanoseconds per entry returned.
    Readdir = 3,
    /// One request frame, send to response decoded.
    Frame = 4,
    /// `chmod` of a directory with cached descendants (seq bumps only).
    /// Its own class: pooled with the dearer renames, the median of the
    /// half-and-half mix would flip between the two modes.
    DirChmod = 5,
}

/// Number of [`Class`] values.
pub const NCLASS: usize = 6;

/// What one step of an actor did.
#[derive(Debug, Clone, Copy)]
pub struct StepOut {
    /// Latency class of the step.
    pub class: Class,
    /// A second class the same sample also belongs to.
    pub also: Option<Class>,
    /// Operations completed (1, or the requests of a completed frame).
    pub ops: u32,
    /// Operations whose result the oracle does not admit.
    pub failed: u32,
    /// The latency sample is the step's time divided by this (entries
    /// returned by a listing; 1 otherwise).
    pub units: u32,
    /// For steps that time themselves (pipelined frames): the latency
    /// and the instant it ended. The driver then takes no clock reading.
    pub timed: Option<(u64, Instant)>,
}

impl StepOut {
    /// One operation of `class`, `ok` or not.
    pub fn one(class: Class, ok: bool) -> StepOut {
        StepOut {
            class,
            also: None,
            ops: 1,
            failed: !ok as u32,
            units: 1,
            timed: None,
        }
    }
}

/// Inputs of a traced operation, kept so that the layers below `vfs` can
/// be called directly with them after the window (the replay groups).
#[derive(Debug, Clone)]
pub struct ReplayInput {
    /// The traced operation's id.
    pub op_id: u64,
    /// Index into the world's processes (whose credentials it ran under).
    pub proc: usize,
    /// The absolute path it resolved.
    pub path: String,
    /// Index into the world's files when the path names one that exists.
    pub file: Option<u32>,
}

/// What a step may record besides doing its work.
#[derive(Default)]
pub struct StepCtx<'a> {
    /// Present while results are being digested for the oracle.
    pub digest: Option<&'a mut Digest>,
    /// Present on every step of a traced window (pipelined actors close
    /// spans on a later step than the one that opened them).
    pub tracer: Option<&'a mut Tracer>,
    /// Where the inputs of traced operations go.
    pub replay: Option<&'a mut Vec<ReplayInput>>,
    /// `(op_id, op span)` when this step was chosen for tracing.
    pub op: Option<(u64, u32)>,
}

impl StepCtx<'_> {
    /// Runs `f`, as a child span of the operation when it is traced.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match (&mut self.tracer, self.op) {
            (Some(t), Some((op_id, op_span))) => t.span(name, Some(op_span), op_id, f),
            _ => f(),
        }
    }

    /// Records the operation's inputs when it is traced.
    #[inline]
    pub fn note(&mut self, proc: usize, path: &str, file: Option<u32>) {
        if let (Some(replay), Some((op_id, _))) = (&mut self.replay, self.op) {
            replay.push(ReplayInput {
                op_id,
                proc,
                path: path.to_string(),
                file,
            });
        }
    }
}

/// One closed-loop caller: a seeded stream of operations against a world.
pub trait Actor: Send {
    /// Issues the next operation of the stream and waits for its result.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut;

    /// Latency is sampled on one step in this many. The default keeps
    /// the clock's cost out of the throughput of sub-microsecond
    /// operations; an actor whose every operation takes tens of
    /// microseconds times them all (a clock pair is under 0.3 % of one)
    /// and so has enough samples for a p99 in a one-second window.
    fn sample_every(&self) -> u64 {
        SAMPLE_EVERY
    }

    /// Called once when the schedule ends (drain what is in flight).
    fn finish(&mut self) {}

    /// Request/response frame pairs kept from traced steps (wire
    /// clients only), handed over for the `server.proto` replay.
    fn kept_frames(&mut self) -> Vec<crate::serve::FramePair> {
        Vec::new()
    }
}

/// How long a phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Until this much time has passed since the phase began.
    Time(Duration),
    /// Until this many steps have run (tests: counts repeat exactly).
    Steps(u64),
}

/// One phase of a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// When it ends.
    pub limit: Limit,
    /// Timed phases produce a [`Window`]; untimed ones are warm-up.
    pub timed: bool,
    /// Record spans on one operation in [`TRACE_EVERY`].
    pub traced: bool,
    /// Digest the results of this many leading steps.
    pub digest_steps: u64,
}

impl Phase {
    /// Untimed warm-up that digests its first `digest_steps` steps.
    pub fn warm(limit: Limit, digest_steps: u64) -> Phase {
        Phase {
            limit,
            timed: false,
            traced: false,
            digest_steps,
        }
    }

    /// A timed window.
    pub fn window(limit: Limit, traced: bool) -> Phase {
        Phase {
            limit,
            timed: true,
            traced,
            digest_steps: 0,
        }
    }
}

/// A fixed-capacity uniform sample of a window's latencies.
#[derive(Debug, Clone, Default)]
pub struct Reservoir {
    seen: u64,
    buf: Vec<u32>,
}

impl Reservoir {
    #[inline]
    fn push(&mut self, ns: u64, rng: &mut Rng) {
        let v = ns.min(u32::MAX as u64) as u32;
        self.seen += 1;
        if self.buf.len() < RESERVOIR {
            self.buf.push(v);
        } else {
            let j = rng.below(self.seen as usize);
            if j < RESERVOIR {
                self.buf[j] = v;
            }
        }
    }

    /// Samples offered (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples.
    pub fn samples(&self) -> &[u32] {
        &self.buf
    }
}

/// What one actor did in one timed window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations completed.
    pub ops: u64,
    /// Operations whose result the oracle did not admit.
    pub failed: u64,
    /// Operations completed, by [`Class`].
    pub class_ops: [u64; NCLASS],
    /// Wall time from the window's first step to its last.
    pub elapsed_ns: u64,
    /// Latency samples by [`Class`].
    pub samples: [Reservoir; NCLASS],
}

/// Everything one actor's thread produced.
#[derive(Debug, Default)]
pub struct ActorReport {
    /// One per timed phase, in order.
    pub windows: Vec<Window>,
    /// Operations completed and failed in untimed phases.
    pub warm_ops: u64,
    /// Of those, the failed ones.
    pub warm_failed: u64,
    /// Digest of the steps that were digested.
    pub digest: Digest,
    /// How many steps that was.
    pub digest_steps: u64,
    /// Spans of the traced windows.
    pub tracer: Option<Tracer>,
    /// Inputs of the traced operations.
    pub replay: Vec<ReplayInput>,
}

/// Runs `actor` through `phases`, beginning at `start` (shared by the
/// threads of a run so that their phases line up).
pub fn drive(actor: &mut dyn Actor, phases: &[Phase], start: Instant, seed: u64) -> ActorReport {
    let mut report = ActorReport::default();
    let mut rng = Rng::new(seed).fork(0x5a3b);
    let mut tracer = phases.iter().any(|p| p.traced).then(|| Tracer::new(start));
    let mut phase_start = start;
    let mut steps_total = 0u64;
    let sample_every = actor.sample_every();
    // Wait for the common start so that no thread measures alone.
    while Instant::now() < start {
        std::hint::spin_loop();
    }
    for phase in phases {
        let mut win = Window::default();
        let mut steps = 0u64;
        let deadline = match phase.limit {
            Limit::Time(d) => Some(phase_start + d),
            Limit::Steps(_) => None,
        };
        let max_steps = match phase.limit {
            Limit::Steps(n) => n,
            Limit::Time(_) => u64::MAX,
        };
        let mut last = phase_start;
        while steps < max_steps {
            steps += 1;
            steps_total += 1;
            // A traced step records spans instead of a latency sample.
            let traced = phase.traced && steps % TRACE_EVERY == 1;
            let sampled = !traced && steps.is_multiple_of(sample_every);
            let t0 = sampled.then(Instant::now);
            let op = match (&mut tracer, traced) {
                (Some(tr), true) => Some((steps_total, tr.open("op", None, steps_total))),
                _ => None,
            };
            let mut ctx = StepCtx {
                digest: (steps <= phase.digest_steps).then_some(&mut report.digest),
                tracer: if phase.traced { tracer.as_mut() } else { None },
                replay: phase.traced.then_some(&mut report.replay),
                op,
            };
            let out = actor.step(&mut ctx);
            if let (Some(tr), Some((_, span))) = (&mut tracer, op) {
                // A pipelined actor closes its `op` again when the reply
                // has been decoded; this is the synchronous case.
                if tr.spans[span as usize].end_ns == 0 {
                    tr.close(span);
                }
            }
            win.ops += out.ops as u64;
            win.failed += out.failed as u64;
            win.class_ops[out.class as usize] += out.ops as u64;
            let stamp = match (out.timed, t0) {
                (Some((ns, at)), _) => Some((ns, at)),
                (None, Some(t0)) => {
                    let t1 = Instant::now();
                    Some(((t1 - t0).as_nanos() as u64, t1))
                }
                (None, None) => None,
            };
            if let Some((ns, at)) = stamp {
                if phase.timed && !traced {
                    let v = ns / out.units.max(1) as u64;
                    win.samples[out.class as usize].push(v, &mut rng);
                    if let Some(also) = out.also {
                        win.samples[also as usize].push(v, &mut rng);
                    }
                }
                last = at;
                if deadline.is_some_and(|d| at >= d) {
                    break;
                }
            }
        }
        if deadline.is_none() {
            last = Instant::now();
        }
        win.elapsed_ns = (last - phase_start).as_nanos() as u64;
        report.digest_steps += steps.min(phase.digest_steps);
        if phase.timed {
            report.windows.push(win);
        } else {
            report.warm_ops += win.ops;
            report.warm_failed += win.failed;
        }
        phase_start = last;
    }
    actor.finish();
    report.tracer = tracer;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts its steps; optionally times every one of them.
    struct Ticker {
        every: u64,
        steps: u64,
    }

    impl Actor for Ticker {
        fn sample_every(&self) -> u64 {
            self.every
        }

        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOut {
            self.steps += 1;
            ctx.note(0, "/a/b", None);
            ctx.call("layer.call", || ());
            if let Some(d) = &mut ctx.digest {
                d.errno(&Ok::<(), dc_fs::FsError>(()));
            }
            StepOut::one(Class::Lookup, true)
        }
    }

    #[test]
    fn phases_count_steps_digest_the_leading_ones_and_sample_one_in_eight() {
        let mut a = Ticker {
            every: SAMPLE_EVERY,
            steps: 0,
        };
        let phases = [
            Phase::warm(Limit::Steps(100), 40),
            Phase::window(Limit::Steps(800), false),
            Phase::window(Limit::Steps(80), false),
        ];
        let r = drive(&mut a, &phases, Instant::now(), 1);
        assert_eq!(a.steps, 980);
        assert_eq!(
            (r.warm_ops, r.digest_steps, r.digest.results()),
            (100, 40, 40)
        );
        assert_eq!(r.windows.len(), 2);
        assert_eq!((r.windows[0].ops, r.windows[1].ops), (800, 80));
        assert_eq!(r.windows[0].samples[Class::Lookup as usize].seen(), 100);
        assert_eq!(r.windows[1].class_ops[Class::Lookup as usize], 80);
        assert!(r.tracer.is_none() && r.replay.is_empty());
    }

    #[test]
    fn a_traced_window_records_spans_even_when_every_step_is_timed() {
        for every in [1, SAMPLE_EVERY] {
            let mut a = Ticker { every, steps: 0 };
            let r = drive(
                &mut a,
                &[Phase::window(Limit::Steps(TRACE_EVERY * 10), true)],
                Instant::now(),
                1,
            );
            let tr = r.tracer.expect("traced phase");
            let ops: Vec<_> = tr.spans.iter().filter(|s| s.name == "op").collect();
            assert_eq!(ops.len(), 10, "one operation in {TRACE_EVERY} is traced");
            assert_eq!(r.replay.len(), 10);
            // Real nesting: each layer call is a child of its operation.
            let calls: Vec<_> = tr.spans.iter().filter(|s| s.name == "layer.call").collect();
            assert_eq!(calls.len(), 10);
            for c in calls {
                let parent = &tr.spans[c.parent.expect("has a parent") as usize];
                assert_eq!((parent.name, parent.op_id), ("op", c.op_id));
                assert!(parent.start_ns <= c.start_ns && c.end_ns <= parent.end_ns);
            }
        }
    }

    #[test]
    fn the_reservoir_keeps_a_bounded_sample() {
        let mut rng = Rng::new(3);
        let mut r = Reservoir::default();
        for i in 0..(RESERVOIR as u64 * 3) {
            r.push(i, &mut rng);
        }
        assert_eq!(r.seen(), RESERVOIR as u64 * 3);
        assert_eq!(r.samples().len(), RESERVOIR);
        // A uniform sample of 0..3R has about a third of its values in
        // each third.
        let low = r
            .samples()
            .iter()
            .filter(|&&v| (v as usize) < RESERVOIR)
            .count();
        assert!(low > RESERVOIR / 4 && low < RESERVOIR / 2, "{low}");
    }
}
