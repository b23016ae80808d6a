(** Decode-once call envelopes.

    A trap crosses the interception stack as an {!t}: the untyped
    {!Value.wire} vector and a lazily-memoized typed {!Call.t} view of
    it travel together, so that however many agents are stacked between
    the application and the kernel, the ABI conversion work is done at
    most once in each direction.

    Origins and their invariants:

    - {!of_wire}: an untyped vector (the application trap boundary, a
      foreign-ABI agent's output).  The typed view materializes on the
      first {!call} and is memoized; every layer below rides it free.
    - {!of_call}: a typed call built by agent or toolkit code on the
      way down.  The typed view is authoritative and the encoding is
      {e dirty} (absent): {!wire} rebuilds it on demand, which only
      happens when a layer actually inspects the raw vector.
    - {!at_boundary}: a typed call crossing the application/system
      boundary.  Per the paper, that boundary is the untyped numeric
      form, so the call is encoded immediately and the typed view is
      deliberately dropped — interposed agents see exactly the wire
      form the application emitted.

    So: at any stacking depth a trap pays at most one decode (at the
    first symbolic layer, or in the kernel when nothing intercepts)
    and re-encodes only when some layer genuinely needs the raw vector
    after a rewrite.  {!Stats} counts the codec work per kernel shard
    so the invariant is measured (bench ablation 3, test suite) rather
    than asserted.

    {b Lifetime and pooling} (DESIGN.md §3.8): the envelope record can
    come from a per-process free list ({!Pool}).  One rule governs it:
    an envelope is valid only until its trap returns, and a pooled
    record goes back to its pool on {!release}.  The wire is immutable
    and never recycled, so a layer that read it with {!wire} during
    the trap may keep it. *)

type t

(** {1 Record pooling}

    Free lists of envelope records, one per process, feeding
    {!of_call} and {!at_boundary}.  Array-backed stack so a warm
    take/recycle pair allocates nothing, scrub-on-recycle so a stale
    view or wire can neither leak into the next trap nor pin dead
    objects against the GC.  The counters live in the shard's
    {!Stats} set ([Kernel.env_pool_stats], the [env_pool] metrics
    block). *)
module Pool : sig
  type t

  val capacity : int
  (** 64 records; returns beyond it are dropped. *)

  val create : unit -> t
  (** A fresh, empty pool. *)

  val size : t -> int
  (** Records currently on the free list. *)
end

(** {1 Construction} *)

val of_wire : Value.wire -> t
(** Wrap an untyped vector; the typed view is decoded lazily.  Never
    pooled. *)

val of_call : ?epool:Pool.t -> Call.t -> t
(** Wrap a typed call; the wire form is encoded lazily (the envelope
    starts {!dirty}).  This is what agents and the toolkit use to send
    new or rewritten calls down the stack.  With [epool], the record
    itself comes off the free list and {!release} returns it. *)

val at_boundary : ?epool:Pool.t -> Call.t -> t
(** Encode a typed call for the application trap boundary: the wire
    form is materialized now (and counted), the typed view dropped.
    Used by the C-library stubs, where the ABI contract is untyped.
    With [epool], the record comes off the free list and {!release}
    returns it. *)

val release : t -> unit
(** Declare the trap that carried this envelope complete and return a
    pooled record to its pool (scrubbed); a no-op for an unpooled
    envelope.  Idempotent until the record is taken again; after
    release the envelope must not be touched (a stale reference reads
    the {e next} trap's call). *)

(** {1 The two views} *)

val number : t -> int
(** The system call number; always available without codec work. *)

val call : t -> (Call.t, Errno.t) result
(** The typed view, decoding (once) if necessary.  Fails with [ENOSYS]
    for an unknown number, [EFAULT] for malformed arguments; the
    failure itself is memoized. *)

val wire : t -> Value.wire
(** The untyped view, encoding (once) if necessary. *)

val peek_wire : t -> Value.wire option
(** The wire form only if already materialized — never encodes. *)

val nargs : t -> int option
(** Arity of the wire form, if materialized. *)

val shape : t -> string
(** The {!Shape} classification of the argument vector, computed from
    whichever view is already materialized ([Shape] guarantees both
    give the same string).  It never performs (or counts) codec work —
    the signature tap must not perturb what it measures.  ["?"] only for
    an undecodable envelope with no wire, which cannot arise on the
    trap path. *)

val decoded : t -> bool
(** Whether the typed view has been materialized (true from birth for
    {!of_call} envelopes).  A layer about to pay virtual decode cost
    checks this first: memoized views are free. *)

val dirty : t -> bool
(** Whether the typed view is authoritative but not (re-)encoded: a
    {!wire} on a dirty envelope performs real encode work. *)

val pp : Format.formatter -> t -> unit
(** Renders the typed view when available, the raw vector otherwise. *)

(** {1 Span attribution}

    Every envelope carries the [Obs] span id of the trap it belongs to
    (0 when tracing is off), stamped at construction from
    [Obs.current ()] and inherited by envelopes agents build mid-trap
    via {!of_call}.  Codec work on the envelope — the decode in
    {!call}, the encodes in {!wire} and {!at_boundary} — is attributed
    to whichever layer frame is innermost on that span when it
    happens, which is what gives bench its per-layer codec table. *)

val span : t -> int
val set_span : t -> int -> unit
(** Normally only [Uspace] re-stamps an envelope, when it opens the
    span {e after} the envelope was built (the re-entrant [trap] entry
    point). *)

(** {1 Codec accounting}

    Counters over every envelope of one kernel shard, bumped only when
    real codec work happens (memoized hits are free), and the shard's
    record-pool counters next to them.  A live counter
    set ({!Stats.t}) is owned by its [Kernel.t] and installed whenever
    that shard runs (DESIGN.md §3.6), so two kernels in one process
    account independently; a default set is installed at program start
    for envelope use outside any kernel.  The bench harness and the
    test suite take {!Stats.snapshot}s around a workload and check
    invariants on the {!Stats.diff}: e.g. under a stack of null
    symbolic agents, [decodes = traps] exactly — one decode per
    intercepted trap, at any depth. *)
module Stats : sig
  type snapshot = {
    traps : int;         (** application-level trap entries *)
    chained : int;       (** traps run through an installed handler
                             in the process's emulation chain *)
    fast_path : int;     (** traps whose chain slot was empty (or out
                             of range), sent straight to the kernel *)
    decodes : int;       (** wire → typed materializations *)
    encodes : int;       (** typed → wire materializations *)
    crossings : int;     (** envelope handed down one stack layer *)
    agent_calls : int;   (** envelopes originated by agent/toolkit code *)
    suspends : int;
        (** effect performs from the trap path that hand the fibre to
            the scheduler: traps that could not finish on the caller's
            fibre, plus CPU charges that could not run inline.  0 per
            trap on a single-process loop at any depth *)
  }

  type t
  (** A live counter set (one per kernel shard). *)

  val create : unit -> t
  (** A fresh, zeroed set. *)

  val install : t -> unit
  (** Make [c] the set envelope codec work bumps.  [Kernel] installs
      the running shard's set on entry; agent and test code should not
      normally need this. *)

  val installed : unit -> t
  (** The set currently receiving counts. *)

  val snapshot_of : t -> snapshot
  (** Read a specific shard's counters ([Kernel.codec_stats] is
      [snapshot_of] on the kernel's own set). *)

  val reset_of : t -> unit
  (** Zero every counter (codec and pool) of a set you own — e.g. a
      scratch set under test.  The old mid-session hygiene problem is
      structurally gone: resetting one shard's counters cannot disturb
      another shard's open measurement window.  Within a shard, still
      prefer {!diff} over zeroing. *)

  val diff : snapshot -> snapshot -> snapshot
  (** [diff before after]: counts in the window between two snapshots.

      {b Contract} (updates the PR 2 note): this remains the way to
      scope counters to a workload.  Per-shard ownership removed the
      cross-session footgun — a reset in one shard can no longer skew
      another's window — but within a single shard a mid-session
      [reset_of] still discards partial codec work of open traps, so
      measure with snapshot pairs, not zeroing. *)

  val pp : Format.formatter -> snapshot -> unit

  val to_json : snapshot -> Obs.Json.t
  (** The ["codec"] block of [Kernel.metrics_json] and [/obs/metrics]
      — notably the [fast_path], [chained] and [suspends] counters next
      to the span metrics. *)

  (** {2 Record-pool counters}

      Aggregated over every {!Pool} of the shard; same snapshot/diff
      style as the codec counters. *)

  type pool_snapshot = {
    hits : int;      (** takes served from a free list *)
    misses : int;    (** takes that fell back to allocation *)
    recycled : int;  (** records returned for reuse *)
    dropped : int;   (** returns rejected by a full pool *)
  }

  val pool_snapshot_of : t -> pool_snapshot
  (** [Kernel.env_pool_stats] is [pool_snapshot_of] on the kernel's own
      set. *)

  val pool_diff : pool_snapshot -> pool_snapshot -> pool_snapshot

  val pool_to_json : pool_snapshot -> Obs.Json.t
  (** The ["env_pool"] block of [Kernel.metrics_json] and
      [/obs/metrics]. *)

  (** {2 Attribution hooks} — called by the kernel stubs and the
      toolkit's down path; not meant for agent code. *)

  val note_trap_chained : unit -> unit
  (** A trap dispatched to an installed chain handler: counted in
      [traps] and [chained]. *)

  val note_trap_fast : unit -> unit
  (** A trap with no handler installed: counted in [traps] and
      [fast_path]. *)

  val note_crossing : unit -> unit
  val note_agent_call : unit -> unit

  val note_suspend : unit -> unit
  (** The trap path handed the calling fibre to the scheduler: counted
      in [suspends]. *)
end
