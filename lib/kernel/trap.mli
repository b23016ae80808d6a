(** The kernel side of one system call, split into its two halves.

    {!dispatch} is the work the kernel does for the call: the
    fatal-signal check at entry, the decode, the entry cost, the
    syscall itself and the in-kernel trace hook.  It runs on the
    caller's fibre ({!Uspace}), or from the run queue when a parked
    call is retried.  {!settle} turns its outcome into the caller's
    fate — a reply (with signals, stops and kills honoured), a park, an
    abandoned or discontinued fibre, an exec — and needs the caller's
    continuation, so it runs under the scheduler's [Suspend] handler or
    from the run queue.  This module sits below {!Uspace}, so the stubs
    reach the kernel with plain calls. *)

val dispatch :
  Kstate.t -> Proc.t -> Abi.Envelope.t -> Events.via -> first:bool
  -> Kstate.outcome
(** Run the kernel half of a trap in no process's context ([Proc.Cur]
    is [None]).  [first] charges the entry cost ([false] on a retry
    after a park, which paid it already).  A fatal signal pending at
    entry ends the process here and yields [Kstate.Killed]; a decode
    failure yields [Done (Error _)]. *)

val settle :
  Kstate.t -> Proc.t -> Abi.Envelope.t -> Events.via -> pre_mask:int
  -> (Events.trap_reply, unit) Effect.Deep.continuation -> Kstate.outcome
  -> unit
(** Settle an outcome of {!dispatch} against the caller's continuation.
    [pre_mask] is the signal mask before dispatch, restored when a
    [sigsuspend] park is interrupted. *)

val retry : Kstate.t -> Proc.t -> unit
(** Make a parked process re-attempt its call from the run queue:
    {!dispatch} (without the entry cost) then {!settle}.  The
    [Kstate.hooks.retry] of every shard. *)

val finish_reply :
  Kstate.t -> Proc.t -> (Events.trap_reply, unit) Effect.Deep.continuation
  -> Events.trap_reply -> unit
(** Deliver a reply at a trap boundary: collect deliverable signals,
    act on a pending kill or stop, otherwise enqueue the resumption. *)

val pending_terminal :
  Proc.t -> [ `Kill of int * int | `Stop of int | `None ]
(** The fate a pending default-action signal decides at a trap
    boundary: [`Kill (signal, wait_status)], [`Stop signal] or
    [`None].  Constant time when nothing is pending. *)

val enqueue_resume :
  Kstate.t -> Proc.t -> ('a, unit) Effect.Deep.continuation -> 'a -> unit
(** Queue the resumption of a fibre, re-checking at run time that the
    process is still runnable (it is discontinued otherwise). *)

val discard : ('a, unit) Effect.Deep.continuation -> unit
(** Discontinue a fibre with [Events.Process_killed], swallowing
    whatever it raises on the way out. *)

val start_exec : Kstate.t -> Proc.t -> Events.exec_spec -> unit
(** Replace the process's program text with a fresh fibre, abandoning
    the old one. *)
