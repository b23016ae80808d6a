(** Process table entries. *)

(** Why a parked process is asleep. *)
type cond =
  | On_child                    (** wait4: any child state change *)
  | On_pipe_read of int         (** pipe id *)
  | On_pipe_write of int
  | On_fifo_read of int         (** fifo inode number *)
  | On_fifo_write of int
  | On_accept of int            (** listener id: until a connection is
                                    pending in the accept queue *)
  | On_connq of int             (** listener id: until the accept queue
                                    has room for another connection *)
  | On_time of int              (** absolute virtual deadline, µs *)
  | On_signal                   (** sigsuspend *)
  | On_select of {
      rpipes : int list;   (* pipe/sock ids awaited for readability *)
      wpipes : int list;   (* pipe/sock ids awaited for writability *)
      rfifos : int list;   (* fifo inos awaited for readability *)
      wfifos : int list;   (* fifo inos awaited for writability *)
      rlisten : int list;  (* listener ids: readable = pending conn *)
    }

type park = {
  k : (Events.trap_reply, unit) Effect.Deep.continuation;
  env : Abi.Envelope.t;         (** the in-flight call, typed view memoized
                                    across wakeup retries *)
  via : Events.via;
  cond : cond;
  saved_mask : int option;      (** sigsuspend restores this mask *)
}

type stopped = {
  sk : (Events.trap_reply, unit) Effect.Deep.continuation;
  reply : Events.trap_reply;
}

type state =
  | Runnable
  | Parked of park
  | Stopped of stopped
  | Zombie
  | Reaped

(** Per-process signal state. *)
type sigstate = {
  mutable handlers : Abi.Value.handler array;  (** index 1..31 *)
  mutable mask : int;
  mutable pending : int;
}

(** The in-address-space interception state — what
    [task_set_emulation] manipulates.  Copied on [fork] (the address
    space, and so the agent, goes with the child); cleared by a raw
    [execve]. *)
type emulation = {
  chain : (Abi.Envelope.t -> Abi.Value.res) array;
      (** the emulation table (DESIGN.md §3.8): slot [n] holds the
          installed handler itself, or {!chain_unset} when there is
          none, so a trap runs [chain.(n) env] with no option probe or
          match.  Written only by the kernel's [Set_emulation] handler;
          copied by {!fork_copy}, replaced by exec. *)
  mutable sig_emul : (int -> unit) option;
}

val chain_kernel_entry : (Abi.Envelope.t -> Abi.Value.res) ref
(** Forward reference to "enter the kernel for the current process",
    filled once by [Uspace] at module initialization (Proc cannot
    depend on Uspace).  On the globals-lint allowlist. *)

val chain_unset : Abi.Envelope.t -> Abi.Value.res
(** The canonical empty chain slot: jumps straight to the kernel via
    {!chain_kernel_entry}.  A slot has a handler iff it is not
    physically equal to this. *)

type t = {
  pid : int;
  mutable ppid : int;
  mutable pgrp : int;
  mutable name : string;
  mutable cred : Vfs.Fs.cred;
  mutable cwd : int;            (** inode number *)
  mutable umask : int;
  mutable fds : File.fd_entry option array;
  sigs : sigstate;
  mutable emul : emulation;
  mutable state : state;
  mutable exit_status : int;    (** wait-status encoding, valid in Zombie *)
  mutable alarm_at : int option;
  mutable syscall_count : int;  (** total traps, for accounting *)
  mutable utime_us : int;       (** virtual user time (cpu_work, agent work) *)
  mutable stime_us : int;       (** virtual system time (in-kernel call cost) *)
  env_pool : Abi.Envelope.Pool.t option;
      (** free list of envelope records feeding
          [Envelope.at_boundary ?epool] / [of_call ?epool] for this
          process's traps; a cache only, so [fork] gives the child a
          fresh one.  Always [Some]; option-typed so the trap stub can
          hand it on without allocating a [Some] per trap *)
}

val fd_table_size : int

val fresh_emulation : unit -> emulation

val create :
  pid:int -> ppid:int -> pgrp:int -> name:string -> cred:Vfs.Fs.cred
  -> cwd:int -> t

val fork_copy : t -> pid:int -> name:string -> t
(** Child copy: shares open files (references bumped by the caller),
    copies cwd/umask/credentials/signal dispositions/emulation table;
    pending signals are not inherited. *)

val fd : t -> int -> File.fd_entry option
(** Bounds-checked descriptor lookup. *)

val alloc_fd : ?from:int -> t -> int option
(** Lowest free descriptor ≥ [from] (default 0). *)

val handler : t -> int -> Abi.Value.handler

val set_handler : t -> int -> Abi.Value.handler -> unit

(** Access to the currently running process, set by the scheduler
    before resuming a fibre.  The user-space stubs use it to consult
    the emulation table without entering the kernel.

    The cell holding the current process is owned by the kernel shard
    (DESIGN.md §3.6): [Kstate.create] allocates one, entering a shard
    installs it, and {!get}/{!set} operate on whichever cell is
    installed — so one kernel's running process is unobservable from
    another.  A default cell is installed at program start. *)
module Cur : sig
  type cell

  val cell : unit -> cell
  (** A fresh, empty cell. *)

  val install : cell -> unit
  val installed : unit -> cell

  val get : unit -> t option
  val get_exn : unit -> t
  val set : t option -> unit
end
