(** User-space system-call stubs: the code that would live in the
    syscall trap path of a real process.

    [trap_wire] is the moral equivalent of the trap instruction: it
    consults the process's in-address-space emulation table first
    (installed by {!task_set_emulation}), so an interposition agent
    sees the call before the kernel does.  [htg_unix_syscall] bypasses
    the table, letting agent code reach the underlying implementation
    of a call it intercepts — the two primitives the paper's toolkit
    builds on.

    Signals with user handlers are delivered on the way out of traps,
    through the agent's signal interposer when one is registered.

    When [Obs] tracing is enabled, every trap entry here opens a span
    and an outermost "uspace" layer frame (and, when no emulation
    handler is interposed, a "kernel" frame around the raw trap), so
    per-layer latency and codec attribution work even at interposition
    depth 0.  With tracing off the instrumentation is a single flag
    check — no virtual time is ever charged for observation. *)

val trap : Abi.Envelope.t -> Abi.Value.res
(** Make a system call carried in a decode-once envelope.  Counts
    toward the calling process's syscall statistics; pays the 30 µs
    interception cost when an emulation handler is installed for the
    number. *)

val trap_wire : Abi.Value.wire -> Abi.Value.res
(** Numeric-form convenience: wraps the vector in a fresh envelope and
    {!trap}s it. *)

val syscall : Abi.Call.t -> Abi.Value.res
(** Typed application-boundary call.  The call is encoded immediately
    ({!Abi.Envelope.at_boundary}) — the boundary contract is the
    untyped vector, so stacked agents see exactly what a real
    application would have trapped with, and the first interested
    layer performs the single decode.  The wire record is drawn from
    the calling process's pool ([Proc.wire_pool]) and recycled when
    the trap completes with the envelope still exclusively owned
    ({!Abi.Envelope.release}). *)

val htg_trap : Abi.Envelope.t -> Abi.Value.res
(** Call the underlying system interface even if the number is being
    intercepted (+37 µs, Table 3-4). *)

val htg_unix_syscall : Abi.Value.wire -> Abi.Value.res
(** Numeric-form convenience over {!htg_trap}. *)

val htg_syscall : Abi.Call.t -> Abi.Value.res
(** Typed convenience over {!htg_trap}; the typed view rides the
    envelope down with no codec work at all. *)

val cpu_work : int -> unit
(** Charge local computation to the virtual clock.  Also a signal
    delivery point, like any trap. *)

(** {1 Signal dispatch}

    The single definition of "hand signal [s] to the layer above",
    shared by the trap exit path here and by the toolkit's downlink
    chain ([Downlink.down_signal]). *)

val deliver_app : Proc.t -> int -> unit
(** Invoke the application's own disposition for [s]: its [H_fn]
    handler, or nothing for default/ignore. *)

val deliver_via : (int -> unit) option -> int -> unit
(** Route through an interposer when one is given, else fall back to
    {!deliver_app} on the calling process. *)

(** {1 Mach-style task primitives} *)

val task_set_emulation :
  numbers:int list -> (Abi.Envelope.t -> Abi.Value.res) option -> unit
(** Install ([Some]) or clear ([None]) the emulation handler for the
    given system call numbers in the calling task. *)

val task_get_emulation : int -> (Abi.Envelope.t -> Abi.Value.res) option
(** The handler installed for one number — the very closure passed to
    {!task_set_emulation} — or [None] for an empty or out-of-range
    slot. *)

val task_set_emulation_signal : (int -> unit) option -> unit
val task_get_emulation_signal : unit -> (int -> unit) option

val exec_load : Events.exec_spec -> 'a
(** Replace the calling process's program text; never returns.  With
    [keep_emulation = true] the interception state survives, which is
    how the toolkit's reimplemented [execve] keeps the agent alive
    across an exec. *)

val self : unit -> Proc.t
(** The calling process (stubs run in process context). *)
