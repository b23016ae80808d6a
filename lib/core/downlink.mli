(** The agent's path to the next-lower instance of the system
    interface.

    When an agent is installed, the loader captures — per intercepted
    syscall number — whatever handler was installed before it (another
    agent's, for stacked configurations like Figure 1-3/1-4 and nested
    transactions).  Calling {!down} routes to that handler, or to the
    kernel via [htg_unix_syscall] when the agent is the lowest one.
    The incoming-signal path chains the same way.

    The capture is one chain, shaped like the process's emulation
    table (DESIGN.md §3.8): slot [n] holds the captured handler itself,
    or a jump to the kernel when none was installed, so {!down} is one
    bounds check and one call. *)

type t

val create : unit -> t

val capture : t -> numbers:int list -> unit
(** Record the current emulation handlers for [numbers] (and the
    current signal interposer) as this agent's down path.  Must run in
    the target process, before the agent's own handlers are
    installed. *)

val down : t -> Abi.Envelope.t -> Abi.Value.res
(** Invoke the next-lower system interface instance, handing the same
    envelope down so its memoized typed view survives the crossing.
    Numbers outside the table go straight to the kernel. *)

val down_call : t -> Abi.Call.t -> Abi.Value.res
(** Typed convenience over {!down}: wraps [c] in an envelope whose
    typed view is authoritative (encoded only if a lower layer demands
    the raw vector).  The envelope record comes from the calling
    process's pool and is released when the lower layers return — a
    handler that stashes it must [Abi.Envelope.retain] it
    (DESIGN.md §3.8). *)

val captured_handler : t -> int -> (Abi.Envelope.t -> Abi.Value.res) option
(** What {!capture} recorded for one number — the very closure, or
    [None] for an empty or out-of-range slot (used by the loader to
    restore state on uninstall). *)

val captured_signal : t -> (int -> unit) option

val down_signal : t -> int -> unit
(** Deliver a signal to the next level up the stack towards the
    application: the previously installed interposer if any, else the
    application's own handler for that signal (one shared dispatch
    definition, [Kernel.Uspace.deliver_via]). *)
