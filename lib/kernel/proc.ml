type cond =
  | On_child
  | On_pipe_read of int
  | On_pipe_write of int
  | On_fifo_read of int
  | On_fifo_write of int
  | On_accept of int       (* listener id: until a connection is pending *)
  | On_connq of int        (* listener id: until the accept queue drains *)
  | On_time of int
  | On_signal
  | On_select of {
      rpipes : int list;   (* pipe/sock ids awaited for readability *)
      wpipes : int list;   (* pipe/sock ids awaited for writability *)
      rfifos : int list;   (* fifo inos awaited for readability *)
      wfifos : int list;   (* fifo inos awaited for writability *)
      rlisten : int list;  (* listener ids: readable = pending conn *)
    }

type park = {
  k : (Events.trap_reply, unit) Effect.Deep.continuation;
  env : Abi.Envelope.t;
  via : Events.via;
  cond : cond;
  saved_mask : int option;
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

type sigstate = {
  mutable handlers : Abi.Value.handler array;
  mutable mask : int;
  mutable pending : int;
}

type emulation = {
  chain : (Abi.Envelope.t -> Abi.Value.res) array;
      (* The per-process emulation table: slot [n] is the installed
         handler, or [chain_unset] — a direct jump to the kernel entry
         — when none is.  A trap calls [chain.(n)] with no option probe
         or match; [Set_emulation] is its only writer. *)
  mutable sig_emul : (int -> unit) option;
}

(* [Uspace] fills this at module initialization with "enter the kernel
   for the current process" — Proc sits below Uspace in the library, so
   the jump target is a forward reference (allowlisted in
   tools/globals_allowlist.txt: written exactly once, at init). *)
let chain_kernel_entry : (Abi.Envelope.t -> Abi.Value.res) ref =
  ref (fun _ -> failwith "Proc.chain_kernel_entry: Uspace not initialized")

(* The one canonical "no handler" chain slot.  A top-level function, so
   an empty slot is recognized by physical equality. *)
let chain_unset env = !chain_kernel_entry env

type t = {
  pid : int;
  mutable ppid : int;
  mutable pgrp : int;
  mutable name : string;
  mutable cred : Vfs.Fs.cred;
  mutable cwd : int;
  mutable umask : int;
  mutable fds : File.fd_entry option array;
  sigs : sigstate;
  mutable emul : emulation;
  mutable state : state;
  mutable exit_status : int;
  mutable alarm_at : int option;
  mutable syscall_count : int;
  mutable utime_us : int;
  mutable stime_us : int;
  env_pool : Abi.Envelope.Pool.t option;
      (* Free list for this process's envelope records.  Always [Some]
         in practice; option-typed so the trap stub can pass it to
         [Envelope.at_boundary ?epool] without wrapping a fresh [Some]
         on every trap. *)
}

let fd_table_size = 64

let fresh_emulation () =
  { chain = Array.make (Abi.Sysno.max_sysno + 1) chain_unset;
    sig_emul = None }

let fresh_sigstate () =
  { handlers = Array.make (Abi.Signal.max_signal + 1) Abi.Value.H_default;
    mask = 0;
    pending = 0 }

let create ~pid ~ppid ~pgrp ~name ~cred ~cwd =
  { pid; ppid; pgrp; name; cred; cwd;
    umask = 0o022;
    fds = Array.make fd_table_size None;
    sigs = fresh_sigstate ();
    emul = fresh_emulation ();
    state = Runnable;
    exit_status = 0;
    alarm_at = None;
    syscall_count = 0;
    utime_us = 0;
    stime_us = 0;
    env_pool = Some (Abi.Envelope.Pool.create ()) }

let fork_copy t ~pid ~name =
  let fds = Array.map
      (Option.map (fun (e : File.fd_entry) ->
         { File.file = e.file; cloexec = e.cloexec }))
      t.fds
  in
  { pid;
    ppid = t.pid;
    pgrp = t.pgrp;
    name;
    cred = t.cred;
    cwd = t.cwd;
    umask = t.umask;
    fds;
    sigs = { handlers = Array.copy t.sigs.handlers;
             mask = t.sigs.mask;
             pending = 0 };
    (* the child's slots alias the parent's handler closures *)
    emul = { chain = Array.copy t.emul.chain; sig_emul = t.emul.sig_emul };
    state = Runnable;
    exit_status = 0;
    alarm_at = None;
    syscall_count = 0;
    utime_us = 0;
    stime_us = 0;
    (* The pool is a cache, not address-space state: the child starts
       with an empty one rather than stealing the parent's records. *)
    env_pool = Some (Abi.Envelope.Pool.create ()) }

let fd t n =
  if n >= 0 && n < Array.length t.fds then t.fds.(n) else None

let alloc_fd ?(from = 0) t =
  let rec go i =
    if i >= Array.length t.fds then None
    else if t.fds.(i) = None then Some i
    else go (i + 1)
  in
  go (max 0 from)

let handler t s =
  if Abi.Signal.is_valid s then t.sigs.handlers.(s) else Abi.Value.H_default

let set_handler t s h =
  if Abi.Signal.is_valid s then t.sigs.handlers.(s) <- h
