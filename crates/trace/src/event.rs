//! The span record vocabulary: what kinds of work are traced and what a
//! single begin/end record carries.

/// Sentinel die index for events that are not attributed to any die
/// (e.g. the campaign-level root span).
pub const NO_DIE: u32 = u32::MAX;

/// Number of coarse per-die stages (sample / measure / extract) — must
/// match the campaign metrics stage table.
pub const STAGE_COUNT: usize = 3;

/// What a span measures. The hierarchy mirrors the pipeline:
/// `Campaign ⊃ Die ⊃ {Sample, Corner ⊃ {Measure, Attempt ⊃ Extract ⊃
/// RobustFit}} ⊃ DcSolve ⊃ Rung ⊃ Newton`, with `QueueWait` spans as
/// campaign-level siblings of each die recording reorder-buffer latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole campaign run, opened by the fold thread.
    Campaign,
    /// One die's full pipeline (sample → measure → extract across corners).
    Die,
    /// Process-parameter sampling for a die.
    Sample,
    /// One bias/temperature corner of a die.
    Corner,
    /// Bench measurement sweep for a corner (DC solves + self-heating).
    Measure,
    /// One extraction attempt inside the retry/recovery loop.
    Attempt,
    /// Parameter extraction work within an attempt.
    Extract,
    /// Robust (IRLS + LM) fit inside an extraction.
    RobustFit,
    /// A full DC operating-point solve (the escalation ladder).
    DcSolve,
    /// One rung of the DC escalation ladder (labelled with the strategy).
    Rung,
    /// One Newton solve inside a ladder rung.
    Newton,
    /// Time a finished die waited in the fold thread's reorder buffer.
    QueueWait,
    /// One service job: begin at admission into the scheduler, end at
    /// completion/cancellation. `n0` carries the job id on both records.
    Job,
    /// Time a service job spent queued before its first execution slice
    /// (the backpressure-visible wait). `n0` carries the job id; `n1` on
    /// the end record carries the queue depth observed at dispatch.
    Queue,
}

impl SpanKind {
    /// Stable lowercase name used for Chrome event names and folded-stack
    /// frames.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::Die => "die",
            SpanKind::Sample => "sample",
            SpanKind::Corner => "corner",
            SpanKind::Measure => "measure",
            SpanKind::Attempt => "attempt",
            SpanKind::Extract => "extract",
            SpanKind::RobustFit => "robust_fit",
            SpanKind::DcSolve => "dc_solve",
            SpanKind::Rung => "rung",
            SpanKind::Newton => "newton",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Job => "job",
            SpanKind::Queue => "queue",
        }
    }

    /// Index into the coarse stage table for the three stage-kind spans
    /// (`Sample` → 0, `Measure` → 1, `Extract` → 2), `None` otherwise.
    /// These indices match `STAGE_NAMES` in the campaign metrics.
    pub fn stage_index(self) -> Option<usize> {
        match self {
            SpanKind::Sample => Some(0),
            SpanKind::Measure => Some(1),
            SpanKind::Extract => Some(2),
            _ => None,
        }
    }

    /// Chrome trace-event category (`cat`), used by Perfetto for
    /// filtering and colouring.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Campaign => "campaign",
            SpanKind::Die | SpanKind::Corner => "die",
            SpanKind::Sample | SpanKind::Measure | SpanKind::Extract => "stage",
            SpanKind::Attempt | SpanKind::RobustFit => "extract",
            SpanKind::DcSolve | SpanKind::Rung | SpanKind::Newton => "solver",
            SpanKind::QueueWait => "pool",
            SpanKind::Job | SpanKind::Queue => "service",
        }
    }

    /// Argument names for the two payload counters carried on this
    /// kind's **end** event. An empty name means the slot is unused and
    /// must be omitted from exports. Names prefixed `nd_` are
    /// nondeterministic (masked by golden-fixture tests); all others are
    /// deterministic solver counters.
    pub fn payload_keys(self) -> (&'static str, &'static str) {
        match self {
            SpanKind::Newton => ("iters", "polish"),
            SpanKind::DcSolve => ("iters", "evals"),
            SpanKind::RobustFit => ("rounds", "outliers"),
            SpanKind::Attempt => ("ok", ""),
            SpanKind::QueueWait => ("nd_buffer", ""),
            SpanKind::Job => ("job", ""),
            SpanKind::Queue => ("job", "nd_depth"),
            _ => ("", ""),
        }
    }
}

/// Whether a record opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Span entry (Chrome phase `B`).
    Begin,
    /// Span exit (Chrome phase `E`).
    End,
}

impl SpanPhase {
    /// The Chrome trace-event `ph` character.
    pub fn chrome(self) -> char {
        match self {
            SpanPhase::Begin => 'B',
            SpanPhase::End => 'E',
        }
    }
}

/// One span begin/end record.
///
/// # Determinism contract
///
/// For a fixed campaign spec, the fields `phase`, `kind`, `die`,
/// `corner`, `attempt`, `label`, `seq`, `n0` and `n1` are identical at
/// any worker-thread count (with the single exception of `QueueWait`
/// payloads, whose `nd_`-prefixed argument names mark them as
/// nondeterministic). `ts_ns` and `worker` are wall-clock/schedule facts
/// and vary run to run; exports place them only in fields that
/// [`crate::mask_nondeterministic`] knows how to blank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin or end.
    pub phase: SpanPhase,
    /// What the span measures.
    pub kind: SpanKind,
    /// Die index, or [`NO_DIE`] for campaign-level events.
    pub die: u32,
    /// Corner index within the die, or `-1` when not inside a corner.
    pub corner: i32,
    /// Recovery-attempt ordinal, or `-1` when not inside an attempt.
    pub attempt: i32,
    /// Static annotation (e.g. the DC ladder strategy); empty when none.
    pub label: &'static str,
    /// Logical sequence number: position of this record within its die's
    /// event stream (deterministic; resets to 0 at each die begin).
    pub seq: u32,
    /// Nanoseconds since the campaign epoch. **Nondeterministic.**
    pub ts_ns: u64,
    /// Worker-thread ordinal that emitted the record. **Nondeterministic**
    /// (dies migrate between workers run to run).
    pub worker: u32,
    /// First payload counter; meaning given by [`SpanKind::payload_keys`].
    pub n0: u64,
    /// Second payload counter; meaning given by [`SpanKind::payload_keys`].
    pub n1: u64,
}
