(** Observability: per-trap spans, a flight-recorder ring, and
    aggregated syscall/layer metrics (DESIGN.md §3.2, sampling and
    export §3.4).

    A {e span} covers one trap from [Uspace.syscall] entry to result
    delivery.  While it is open, each layer the trap passes through —
    uspace, every stacked agent, downlink, the kernel handler — holds a
    {e frame}; closing a frame publishes a {!Span.segment} (virtual-µs
    self/total time plus the envelope decode/encode/rewrite events that
    fired while the frame was on top) into the ring buffer and into the
    per-(depth, layer) aggregation.  Per-span self times sum exactly to
    the root frame's total, which is what makes the per-layer
    attribution table in [bench] consistent with the end-to-end
    numbers.

    With a 1-in-N sampler installed ({!set_sampling}), the keep/skip
    decision is made once per trap at {!span_begin} from a seeded
    deterministic stream; unsampled traps keep per-syscall call/error
    counts exact but record no frames, no histogram observations and no
    ring traffic, so always-on observation costs a counter bump and one
    RNG draw per trap.

    State is keyed by span id — fibres interleave at effect points, so
    spans of several processes are routinely open at once; a per-pid
    stack exists only to answer {!current}.  Observation charges no
    virtual time: enabling tracing moves no published µs figure.  When
    disabled ({!enabled}[ = false]) every entry point is a cheap no-op
    (span id 0). *)

module Ring = Ring
module Hist = Hist
module Json = Json
module Span = Span
module Chrome = Chrome
module Causal = Causal
module Flame = Flame
module Stream = Stream
module Watch = Watch

(** {1 Engines}

    All engine state — the on/off switch, clock and context hooks,
    sampler, span tables, ring, aggregations, and the shard's codec and
    record-pool {!counters} — lives in an {!engine} value.  Each kernel
    shard owns one (DESIGN.md §3.6); entering a shard {!install}s its
    engine so the unit-argument API below, called from code deep in the
    trap path, reaches the right engine without threading a handle
    through every signature.  A default engine is installed at program
    start, so engine-only use (driving spans with no kernel) keeps
    working unchanged. *)

type engine

(** The live codec and envelope-record-pool counters of one shard,
    carried by its engine so that [Abi.Envelope] (which sits above
    this library and below the kernel) reaches them through the one
    installed-engine cell.  [Abi.Envelope.Stats] is the API over them;
    nothing else should write the fields. *)
type counters = {
  mutable c_traps : int;
  mutable c_chained : int;
  mutable c_fast_path : int;
  mutable c_decodes : int;
  mutable c_encodes : int;
  mutable c_crossings : int;
  mutable c_agent_calls : int;
  mutable c_suspends : int;
  mutable c_pool_hits : int;
  mutable c_pool_misses : int;
  mutable c_pool_recycled : int;
  mutable c_pool_dropped : int;
}

val counters_of : engine -> counters

val counters : unit -> counters
(** The installed engine's counters. *)

val engine : ?ring_capacity:int -> unit -> engine
(** A fresh, disabled engine with empty tables (ring capacity defaults
    to 4096 records). *)

val engine_like : engine -> engine
(** A fresh engine inheriting [src]'s {e configuration} — enabled
    switch, sampling rate and seed (decision stream restarted), ring
    capacity — but none of its data: its {!counters} start at zero.
    [Kernel.create] builds each
    shard's engine this way from the installed one, which is what keeps
    the established "configure observation, then create the kernel"
    call order working now that engines are per-shard. *)

val install : engine -> unit
(** Make [e] the engine the unit-argument API operates on. *)

val installed : unit -> engine

val with_engine : engine -> (unit -> 'a) -> 'a
(** Run [f] with [e] installed, restoring the previous engine after
    (exception-safe). *)

(** {1 Switches and environment hooks}

    Everything below reads and writes the {e installed} engine. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val set_clock : (unit -> int) -> unit
(** Source of virtual-clock µs; [Kernel.create] installs the simulation
    clock here. *)

val set_context : (unit -> int) -> unit
(** Source of the currently-running simulated pid (0 when none);
    [Kernel.create] installs a read of its shard's running process. *)

val now_us : unit -> int
val current_pid : unit -> int

val configure : ?ring_capacity:int -> unit -> unit
(** Replace the flight recorder (default capacity 4096 records);
    discards its current contents. *)

val set_sampling : ?seed:int -> int -> unit
(** [set_sampling ~seed n] keeps 1 in [n] spans (n ≤ 1 keeps all, the
    default).  The decision stream is a [Sim.Rng] seeded with [seed]
    (default 0) consuming exactly one draw per trap when [n > 1], so a
    run's keep/skip choices are reproducible and replayable. *)

val sampling : unit -> int
(** The current 1-in-N rate (1 = keep everything). *)

val reset : unit -> unit
(** Clear all state: open spans, aggregations, the ring.  The sampling
    rate and seed persist but the decision stream restarts, so a reset
    window replays the same choices.  The {!counters} are left alone:
    codec snapshot diffs may span a reset.  Call between independent
    measurement windows (the enable/reset pairing replaces the old
    global [Kernel.reset_codec_stats] hygiene problem — see
    [envelope.mli]). *)

(** {1 Span lifecycle} *)

val span_begin : pid:int -> sysno:int -> int
(** Open a span; returns its id, or 0 when disabled.  Sampled span ids
    are positive and unique within a session; a span the sampler skips
    returns a {e negative} sentinel (still passed to {!span_end}, so
    error counts stay exact) and records nothing else.  The
    per-syscall call count is bumped here — exact at any rate. *)

val span_end : int -> error:bool -> unit
(** Close a span: folds it into the per-syscall counters/histogram.
    No-op on id 0 or an already-closed/aborted span; on a negative
    (unsampled) sentinel only the exact error count is updated. *)

val current : unit -> int
(** Innermost open span of the current process (via the context hook),
    or 0.  Envelope constructors use this to tag fresh envelopes. *)

val abort_pid : int -> unit
(** Force-close every open span of a process.  Called on [exit] and
    [exec], whose traps never return to the instrumentation that opened
    them; such spans count as aborted, not completed, and leave an
    ["abort"] mark in the ring. *)

(** {1 Layer frames} *)

type frame

val layer_enter : span:int -> string -> frame option
(** Push a frame named after the layer; [None] when the span is 0,
    unsampled (negative) or no longer live (then nothing need be
    recorded). *)

val layer_exit : frame -> unit
(** Pop the frame, publishing its segment.  Tolerates the span having
    been aborted underneath it, and closes any younger frames an
    exception skipped over. *)

val in_layer : span:int -> string -> (unit -> 'a) -> 'a
(** [in_layer ~span layer f] wraps [f] in an enter/exit pair,
    exception-safely.  Runs [f] bare when the span is dead, unsampled
    or 0. *)

(** {1 Codec and rewrite attribution} *)

val note_decode : int -> unit
(** An envelope belonging to this span was decoded; attributed to the
    span's innermost open frame.  No-op on span ≤ 0. *)

val note_encode : int -> unit

val note_rewrite : int -> unit
(** The call (or its result) was rewritten in flight; attributed to
    the innermost frame and accumulated on the span.  Fired
    automatically when a dirty envelope forces a re-encode (the PR 1
    "genuine rewrite"), and explicitly by mutating agents — crypt's
    payload transform, timex's result shift, remap's ABI translation.
    No-op on span ≤ 0. *)

val span_rewrites : int -> int
(** Rewrites accumulated on an open span so far (0 for closed spans,
    sentinels and span 0) — the trace agent's post events use this to
    flag traps some lower layer mutated. *)

(** {1 Trace-agent records and marks} *)

val record_call : Span.call -> unit
(** Append a trace-agent call record to the ring (no-op when
    disabled). *)

val record_mark : ?span:int -> ?pid:int -> kind:string -> detail:string -> unit -> unit
(** Append a point event to the ring (no-op when disabled); [pid]
    defaults to the context hook's current process.  Used for signal
    deliveries and injected-fault instants; span aborts push their own
    mark. *)

(** {1 Signature capture}

    The syscall-signature tap behind [lib/conformance]: with capture on
    (and the engine enabled), [Uspace.instrumented] appends one
    {!sig_event} per {e application-issued} trap — ordinal, pid, sysno,
    the canonical arg shape ([Abi.Shape], passed in as an opaque string
    since obs sits below [abi]) — and patches the errno outcome in when
    the trap completes.  Agent-originated calls descend through the htg
    entry points, which never open spans and never reach the tap, so
    the stream is exactly the interface the application observes.

    Like {!note_injected}, capture ignores the 1-in-N sampler: a
    signature records events of record, not latency samples, so its
    counts are exact at any sampling rate.  The capture switch is
    engine {e configuration} (copied by {!engine_like}, so the usual
    configure-then-[Kernel.create] order works); the captured stream is
    data (cleared by {!reset}, never copied). *)

type sig_event = {
  g_seq : int;            (** 1-based issue ordinal, whole session *)
  g_pid : int;
  g_sysno : int;
  g_shape : string;       (** canonical arg-shape classes *)
  mutable g_errno : int;  (** 0 success, >0 errno code, {!sig_pending}
                              for a trap that never returned (exit,
                              exec, fibre unwound) *)
}

val sig_pending : int

val sig_capture : bool -> unit
(** Switch capture on the installed engine (effective only while the
    engine is also {!enable}d, since the tap lives inside the span
    instrumentation). *)

val sig_capturing : unit -> bool
(** Whether the installed engine is enabled with capture on — the
    uspace tap's one-branch fast-path test, and the guard callers use
    before paying for shape computation. *)

val sig_note : pid:int -> sysno:int -> string -> sig_event
(** Append an event with a pending outcome; returns it for {!sig_done}
    to patch.  [Uspace.instrumented] only. *)

val sig_done : sig_event -> errno:int -> unit

val sig_events : unit -> sig_event list
(** The captured stream in issue order. *)

val sig_events_of : engine -> sig_event list

val sig_clear : unit -> unit
(** Drop captured events (the switch is untouched); {!reset} also
    clears them. *)

val note_injected : unit -> unit
(** An agent deliberately injected a fault into the current trap.
    Counted exactly whenever the engine is enabled (the sampler does
    not apply — an injected fault is an event of record, not a latency
    sample); reported as [m_injected] / the ["injected"] metrics
    field.  Fault agents pair this with a {!record_mark}
    [~kind:"inject"] instant on the trap's span. *)

(** {1 Causal edges}

    The cross-process event graph (DESIGN.md §3.9): fork, signal and
    pipe edges between spans, recorded by kernel hooks as {e events of
    record} (like signature capture, the sampler does not thin them —
    but an endpoint the sampler skipped carries its negative sentinel
    and drops out of {!Causal.slice} and Chrome flow views).  Each
    hook is pure bookkeeping on the installed engine: edges charge
    zero virtual time, so no published µs figure moves.

    Fork and signal edges resolve in two halves — the source files a
    pending half-edge (the fork trap, the kill trap), the destination
    completes it (the child's first {!span_begin}, the delivery into
    the receiver's current trap).  Pipe edges resolve through per-pipe
    byte-offset watermarks: writes append byte intervals stamped with
    the writing span, reads consume them.  Cross-shard signal edges
    ship their origin with the cluster mail and complete on the
    destination shard, ordered by the same (ts, shard, seq) merge rule
    as the mail itself. *)

val set_shard : int -> unit
(** Stamp the installed engine with its owning shard id
    ([Kernel.create] does this); edge endpoints carry it because span
    ids are unique only per engine. *)

val shard : unit -> int

val causal_fork : parent:int -> child:int -> unit
(** The kernel cloned [child] inside [parent]'s (still open) fork
    trap; the edge completes at the child's first span. *)

val causal_signal_send : src_pid:int -> dst_pid:int -> signal:int -> unit
(** [src_pid]'s kill trap posted [signal] to [dst_pid] (same shard). *)

val causal_signal_send_remote :
  src_shard:int -> src_span:int -> src_pid:int -> dst_pid:int -> signal:int -> unit
(** Cross-shard variant, run on the {e destination} shard's engine
    with the origin captured by {!causal_origin} on the source shard
    and shipped with the cluster mail. *)

val causal_origin : unit -> int * int * int
(** [(shard, innermost open span, pid)] of the ambient process — what
    [Cluster.send] stamps into cross-shard mail. *)

val causal_signal_delivered :
  pid:int -> signal:int -> span:int -> detail:string -> unit
(** A signal reached [pid]'s application handler inside span [span];
    completes the oldest matching pending half-edge, if any (signals
    without a sender span — alarms, kernel-raised SIGPIPE — have
    none). *)

val causal_pipe_write : chan:string * int -> pid:int -> bytes:int -> unit
(** [pid]'s current trap wrote [bytes] accepted bytes to channel
    [chan] ([("pipe"|"fifo", id)]). *)

val causal_pipe_read : chan:string * int -> pid:int -> bytes:int -> unit
(** [pid]'s current trap consumed [bytes] from [chan]; emits one Pipe
    edge per distinct writer span those bytes came from. *)

val causal_edges : unit -> Causal.edge list
(** Recorded edges, oldest first; non-destructive. *)

val causal_edges_of : engine -> Causal.edge list
val causal_drain : unit -> Causal.edge list
val causal_drain_of : engine -> Causal.edge list

(** {1 Streaming} *)

val poll : Stream.cursor -> Span.record list * int
(** Incremental drain of the installed engine's ring: records pushed
    since the cursor's last poll (each delivered at most once) and
    the count lost to ring overwrite or an interleaved full
    {!drain}.  Non-destructive — followers never steal records from
    the final drain. *)

val poll_of : engine -> Stream.cursor -> Span.record list * int

(** {1 Reading the flight recorder} *)

val records : unit -> Span.record list
(** Oldest first; non-destructive. *)

val drain : unit -> Span.record list
(** Read and clear (also resets the dropped counter). *)

val segments : unit -> Span.segment list
(** Just the layer segments from {!records}. *)

val dropped : unit -> int

(** {1 Metrics} *)

type syscall_metrics = {
  sm_sysno : int;
  sm_calls : int;   (** traps opened for this sysno — {e exact} at any
                        sampling rate, aborted traps included *)
  sm_errors : int;  (** of which returned an error result — exact *)
  sm_hist : Hist.t; (** end-to-end span latency, virtual µs — sampled *)
}

type layer_metrics = {
  lm_depth : int;    (** frame nesting depth within its span *)
  lm_layer : string;
  lm_traps : int;    (** frames closed at this (depth, layer) — sampled *)
  lm_decodes : int;
  lm_encodes : int;
  lm_rewrites : int; (** in-flight call rewrites attributed here *)
  lm_self_us : int;  (** sum of per-frame self time *)
  lm_total_us : int; (** sum of per-frame total time *)
  lm_hist : Hist.t;  (** per-frame self-time distribution *)
}

type metrics = {
  m_spans : int;    (** sampled spans completed normally *)
  m_aborted : int;  (** sampled spans force-closed by exit/exec *)
  m_injected : int; (** faults injected by agents ({!note_injected}) —
                        {e exact} at any sampling rate *)
  m_open : int;     (** spans still open at snapshot time *)
  m_dropped : int;  (** ring records overwritten before draining *)
  m_sample_n : int; (** 1-in-N rate the sampled figures cover *)
  m_syscalls : syscall_metrics list; (** ascending sysno *)
  m_layers : layer_metrics list;     (** ascending (depth, layer) *)
}

val metrics : unit -> metrics

val metrics_of : engine -> metrics
(** Snapshot a specific engine (the kernel's handle-based accessors use
    this; {!metrics} is [metrics_of (installed ())]). *)

val merge_metrics : metrics list -> metrics
(** Aggregate per-shard snapshots into one cluster-wide view: exact
    counters sum, per-syscall and per-layer histograms merge
    bucket-wise (inputs are left untouched), [sample_n] is the maximum
    across inputs so sampled estimates stay conservative. *)

val records_of : engine -> Span.record list
val drain_of : engine -> Span.record list

val metrics_to_json : ?name:(int -> string) -> metrics -> Json.t
(** [name] renders syscall numbers (callers pass [Abi.Sysno.name]; obs
    itself stays below [abi] in the library stack and cannot).
    Histograms carry [p50_us]/[p90_us]/[p99_us] upper-bucket-bound
    estimates ({!Hist.quantile}); when [sample_n > 1], sampled figures
    gain pre-scaled [est_*] companions so consumers can tell estimated
    from exact. *)
