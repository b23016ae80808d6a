(** Kernel state and the operations on it that do not involve running
    fibres: the process and file tables, wait queues, timers, signal
    posting and process exit.  The scheduler and syscall dispatcher sit
    on top ({!Kernel}, {!Syscalls}). *)

type wait_key =
  | K_child of int        (** parent pid *)
  | K_pipe_r of int
  | K_pipe_w of int
  | K_fifo_r of int       (** fifo ino *)
  | K_fifo_w of int
  | K_accept of int       (** listener id: a connection arrived *)
  | K_connq of int        (** listener id: the accept queue drained *)
  | K_signal of int       (** pid in sigsuspend *)

type timer_event =
  | T_wake of int         (** pid sleeping *)
  | T_alarm of int        (** pid to receive SIGALRM *)
  | T_select of int       (** pid's select timeout *)

(** Result of dispatching one system call. *)
type outcome =
  | Done of Abi.Value.res
  | Block of Proc.cond    (** park the caller; retried on wake *)
  | Exited                (** the caller is gone; abandon the fibre *)
  | Killed
      (** a fatal signal pending at trap entry ended the caller before
          dispatch; discontinue its fibre.  Produced by [Trap.dispatch],
          never by {!Syscalls.dispatch} *)
  | Exec of Events.exec_spec
      (** replace the caller's program text; abandon the fibre *)

(** Functions supplied by the scheduler layer at start-up. *)
type hooks = {
  spawn : Proc.t -> (unit -> int) -> unit;
      (** enqueue a fresh fibre for an (already registered) process *)
  retry : Proc.t -> unit;
      (** make a parked process re-attempt its system call *)
  send : dst:int -> pid:int -> signal:int -> unit;
      (** [Kernel.Cluster.send] from a fibre of this shard: mail a
          signal to another shard of the same cluster.  Raises
          [Invalid_argument] on a shard outside any cluster *)
}

type t = {
  shard_id : int;  (** position in a [Kernel.Cluster], 0 standalone *)
  clock : Sim.Clock.t;
  fs : Vfs.Fs.t;
  console : Dev.Console.t;
  devs : Dev.table;
  procs : (int, Proc.t) Hashtbl.t;
  runq : (unit -> unit) Queue.t;
  waitqs : (wait_key, int list ref) Hashtbl.t;
  bindings : (string, File.sock) Hashtbl.t;
      (** socket address namespace: [bind] claims a name (EADDRINUSE on
          conflict), [connect] resolves one, closing the bound or
          listening socket releases it *)
  registry : Registry.t;           (** shard-owned executable images *)
  obs : Obs.engine;
      (** shard-owned observability engine, carrying the shard's codec
          and envelope-record-pool counters ([Obs.counters_of]) *)
  mutable running : Proc.t option;
      (** the process whose fibre is running, [None] between fibres
          and while the kernel half of a trap runs.  Written only by
          {!run_as}, the scheduler's effect handler and the inline
          trap bracket in [Uspace.kernel_call] *)
  mutable host_cpu_t0 : float;
      (** [Sys.time] when the shard's first process started *)
  mutable host_minor_words_t0 : float;
      (** GC baselines taken with it, for the [host] metrics block *)
  mutable host_promoted_words_t0 : float;
  mutable host_major_collections_t0 : int;
  mutable timers : (int * timer_event) list;  (** sorted by time *)
  mutable next_pid : int;
  mutable next_file_id : int;
  mutable next_pipe_id : int;
  mutable next_listener_id : int;
  mutable tod_offset_us : int;   (** settimeofday adjustment *)
  mutable hooks : hooks;
  mutable trace_hook : (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option;
  mutable trace_hook_cost_us : int;
  mutable retired_syscalls : int;
  mutable deadlock_kills : int;
  mutable watch : Obs.Watch.rule list;
      (** watchdog rules evaluated over this shard's metrics; stored on
          the shard handle, not the obs engine, so rules survive
          [Obs.reset] and stay per-shard in a cluster *)
}

val create : ?shard_id:int -> unit -> t
(** A fresh shard: everything above is newly allocated, except that the
    obs engine inherits the {e configuration} (enablement, sampling,
    ring capacity — never the data) of the currently installed engine,
    preserving the "configure observation, then create the kernel"
    call order. *)

(** The ambient current shard: which kernel's state in-fibre code that
    holds no handle (agents, the C-library stubs) should reach, and
    through its {!field-running} field which process.  [Kernel.enter]
    maintains it together with [Obs.install]; read it via
    [Kernel.current].  One of the two installed-instance cells on the
    globals-lint allowlist, beside [Obs]'s engine cell: obs and abi sit
    below this library and cannot name {!t}. *)
module Ambient : sig
  val current : t option ref
end

val charge : t -> int -> unit
val now_us : t -> int
(** Virtual wall time including the [settimeofday] offset. *)

val cred : Proc.t -> Vfs.Fs.cred

(* --- process table --- *)

val proc : t -> int -> Proc.t option
val alloc_pid : t -> int
val add_proc : t -> Proc.t -> unit
val children : t -> Proc.t -> Proc.t list
val live_procs : t -> Proc.t list
val total_syscalls : t -> int

(* --- wait queues and timers --- *)

val enqueue : t -> (unit -> unit) -> unit
val sleep_on : t -> wait_key -> int -> unit
val wake_key : t -> wait_key -> unit
(** Retry every parked process on the queue (liveness is re-checked). *)

val add_timer : t -> at:int -> timer_event -> unit
val cancel_timers_for : t -> int -> unit
val cancel_select_timers : t -> int -> unit
val has_select_timer : t -> int -> bool
val next_timer : t -> (int * timer_event) option

val next_timer_at : t -> int
(** Earliest timer deadline, [max_int] when none are armed.  Unlike
    {!next_timer} this never allocates — {!may_continue} reads it on
    every inline CPU charge and trap. *)

val runnable : Proc.t -> bool
(** The liveness re-check every resumption from the run queue makes:
    the process may have been killed while it waited there. *)

val may_continue : t -> Proc.t -> at:int -> bool
(** The one guard under which the running fibre of a process carries
    on without handing control to the scheduler, used by both the
    inline CPU charge and inline trap completion ({!Uspace}): the
    process is still {!runnable}, no signal is pending for it, the run
    queue is empty, and no timer is due at or before [at].  When it
    holds, a round trip through the scheduler would pop this fibre
    straight back having changed nothing.  A process killed while its
    fibre runs (a [Zombie] whose user code caught
    [Events.Process_killed]) fails it, so the scheduler discards that
    fibre at its next trap or charge. *)

val pop_timer : t -> unit

(* --- running fibres --- *)

val discard : ('a, unit) Effect.Deep.continuation -> unit
(** Discontinue a fibre with [Events.Process_killed], swallowing
    whatever it raises on the way out. *)

val run_as : t -> Proc.t -> ('a -> 'b -> unit) -> 'a -> 'b -> bool
(** [run_as t p go a b] runs [go a b] with [p] as {!field-running}
    when [p] is still {!runnable}, and says whether it did.  Every
    fibre of the shard runs under it, from its start to its first
    effect and from each resumption to the next. *)

val resume : t -> Proc.t -> ('a, unit) Effect.Deep.continuation -> 'a -> unit
(** Continue [p]'s fibre with a value under {!run_as}, or {!discard}
    it when [p] is no longer runnable. *)

(* --- open files and descriptors --- *)

val new_file : t -> File.kind -> flags:int -> File.t
val new_pipe : t -> File.t * File.t
(** Read end, write end. *)

val new_socketpair : t -> File.t * File.t
(** Two connected bidirectional endpoints. *)

val new_conn_pair : t -> File.conn * File.conn
(** Both endpoints of a fresh stream connection — two new pipes held
    crossed, the pipe references for both sides already taken.  The
    caller owns releasing them (via {!release_file} on a wrapping
    socket, or {!release_conn} directly). *)

val new_listener : t -> backlog:int -> File.listener
(** A fresh accept queue with a new listener id; backlog clamped ≥ 1. *)

val shut_conn_rd : t -> File.conn -> unit
val shut_conn_wr : t -> File.conn -> unit
(** Release one direction of a connection endpoint and wake the peer;
    idempotent via the conn's shut flags, so [shutdown] followed by
    [close] drops each pipe reference exactly once. *)

val release_conn : t -> File.conn -> unit
(** Release both directions. *)

val unbind : t -> string -> File.sock -> unit
(** Drop [addr] from {!field-bindings} iff it still belongs to this
    socket. *)

val install_fd : t -> Proc.t -> ?cloexec:bool -> ?from:int -> File.t
  -> (int, Abi.Errno.t) result
(** Place an (already referenced) file in the lowest free slot. *)

val retain_file : File.t -> unit
val release_file : t -> File.t -> unit
(** Drop one reference; at zero, release inode / pipe endpoints and
    wake the peer end. *)

val close_fd : t -> Proc.t -> int -> (unit, Abi.Errno.t) result

(* --- signals --- *)

val post_signal : t -> Proc.t -> int -> unit
(** Make a signal pending and act on it as far as the target's state
    allows (terminate, stop, continue, or interrupt a sleep). *)

val collect_deliverable : t -> Proc.t -> int list
(** Drain pending, unmasked, user-handled signals (clearing their
    pending bits) and apply default actions for the rest.  May
    terminate or stop [Runnable] processes as a side effect; the caller
    must re-check the process state afterwards. *)

val wake_parked_with : t -> Proc.t -> Proc.park -> Events.trap_reply -> unit
(** Resume a parked process with an explicit reply (used by timers). *)

val terminate_fiber :
  t -> Proc.t -> ('a, unit) Effect.Deep.continuation -> int -> unit
(** {!do_exit} with the given wait-status, then {!discard} the
    process's fibre. *)

val do_exit : t -> Proc.t -> int -> unit
(** Terminate with the given wait-status: close descriptors, zombify,
    reparent children to pid 1, notify and wake the parent. *)

(* --- tracing hooks (the in-kernel DFSTrace comparator) --- *)

val set_trace_hook :
  t -> ?cost_us:int -> (Proc.t -> Abi.Call.t -> Abi.Value.res -> unit) option
  -> unit

val run_trace_hook : t -> Proc.t -> Abi.Call.t -> Abi.Value.res -> unit
