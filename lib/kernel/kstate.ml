open Abi

type wait_key =
  | K_child of int
  | K_pipe_r of int
  | K_pipe_w of int
  | K_fifo_r of int
  | K_fifo_w of int
  | K_accept of int
  | K_connq of int
  | K_signal of int

type timer_event =
  | T_wake of int
  | T_alarm of int
  | T_select of int

type outcome =
  | Done of Value.res
  | Block of Proc.cond
  | Exited
  | Killed
  | Exec of Events.exec_spec

type hooks = {
  spawn : Proc.t -> (unit -> int) -> unit;
  retry : Proc.t -> unit;
  send : dst:int -> pid:int -> signal:int -> unit;
}

type t = {
  shard_id : int;
  clock : Sim.Clock.t;
  fs : Vfs.Fs.t;
  console : Dev.Console.t;
  devs : Dev.table;
  procs : (int, Proc.t) Hashtbl.t;
  runq : (unit -> unit) Queue.t;
  waitqs : (wait_key, int list ref) Hashtbl.t;
  bindings : (string, File.sock) Hashtbl.t;
  registry : Registry.t;
  obs : Obs.engine;
  mutable running : Proc.t option;
  mutable host_cpu_t0 : float;
  mutable host_minor_words_t0 : float;
  mutable host_promoted_words_t0 : float;
  mutable host_major_collections_t0 : int;
  mutable timers : (int * timer_event) list;
  mutable next_pid : int;
  mutable next_file_id : int;
  mutable next_pipe_id : int;
  mutable next_listener_id : int;
  mutable tod_offset_us : int;
  mutable hooks : hooks;
  mutable trace_hook : (Proc.t -> Call.t -> Value.res -> unit) option;
  mutable trace_hook_cost_us : int;
  mutable retired_syscalls : int;
  mutable deadlock_kills : int;
  mutable watch : Obs.Watch.rule list;
}

let no_hooks = {
  spawn = (fun _ _ -> failwith "Kstate: hooks not installed");
  retry = (fun _ -> failwith "Kstate: hooks not installed");
  send =
    (fun ~dst:_ ~pid:_ ~signal:_ ->
      invalid_arg "Cluster.send: the current shard is not in a cluster");
}

let create ?(shard_id = 0) () =
  let clock = Sim.Clock.create () in
  let fs = Vfs.Fs.create ~now:(fun () -> Sim.Clock.now_us clock / 1_000_000) () in
  let console = Dev.Console.create () in
  { shard_id; clock; fs; console;
    devs = Dev.standard_table console;
    procs = Hashtbl.create 32;
    runq = Queue.create ();
    waitqs = Hashtbl.create 32;
    bindings = Hashtbl.create 16;
    (* the shard-owned pieces that used to be module globals
       (DESIGN.md §3.6): each kernel gets fresh ones; the obs engine
       inherits the installed engine's configuration so observation
       set up before [Kernel.create] still applies *)
    registry = Registry.create ();
    obs = Obs.engine_like (Obs.installed ());
    running = None;
    host_cpu_t0 = 0.;
    host_minor_words_t0 = 0.;
    host_promoted_words_t0 = 0.;
    host_major_collections_t0 = 0;
    timers = [];
    next_pid = 1;
    next_file_id = 1;
    next_pipe_id = 1;
    next_listener_id = 1;
    tod_offset_us = 0;
    hooks = no_hooks;
    trace_hook = None;
    trace_hook_cost_us = 0;
    retired_syscalls = 0;
    deadlock_kills = 0;
    watch = [] }

(* --- the ambient current shard ----------------------------------------- *)

(* The one place the "which kernel is running?" question is answered
   for code that holds no handle (in-fibre agents, the C-library
   stubs); the shard's [running] field answers "which process?".
   [Kernel.enter] installs a shard here together with its obs engine
   (which carries the codec and pool counters); this ref is on the
   globals-lint allowlist. *)
module Ambient = struct
  let current : t option ref = ref None
end

let charge t us = Sim.Clock.charge t.clock us
let now_us t = Sim.Clock.now_us t.clock + t.tod_offset_us

let cred (p : Proc.t) = p.cred

(* --- process table ----------------------------------------------------- *)

let proc t pid = Hashtbl.find_opt t.procs pid

let alloc_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let add_proc t (p : Proc.t) = Hashtbl.replace t.procs p.pid p

let children t (p : Proc.t) =
  Hashtbl.fold
    (fun _ (c : Proc.t) acc ->
      if c.ppid = p.pid && c.state <> Proc.Reaped then c :: acc else acc)
    t.procs []
  |> List.sort (fun (a : Proc.t) b -> compare a.pid b.pid)

let live_procs t =
  Hashtbl.fold
    (fun _ (p : Proc.t) acc ->
      match p.state with
      | Proc.Zombie | Proc.Reaped -> acc
      | Proc.Runnable | Proc.Parked _ | Proc.Stopped _ -> p :: acc)
    t.procs []
  |> List.sort (fun (a : Proc.t) b -> compare a.pid b.pid)

let total_syscalls t =
  Hashtbl.fold (fun _ (p : Proc.t) acc -> acc + p.syscall_count)
    t.procs t.retired_syscalls

(* --- run queue, wait queues and timers --------------------------------- *)

let enqueue t thunk = Queue.add thunk t.runq

let waitq t key =
  match Hashtbl.find_opt t.waitqs key with
  | Some q -> q
  | None ->
    let q = ref [] in
    Hashtbl.replace t.waitqs key q;
    q

let sleep_on t key pid =
  let q = waitq t key in
  if not (List.mem pid !q) then q := pid :: !q

let cond_matches (cond : Proc.cond) (key : wait_key) =
  match cond, key with
  | Proc.On_child, K_child _ -> true
  | Proc.On_pipe_read i, K_pipe_r j -> i = j
  | Proc.On_pipe_write i, K_pipe_w j -> i = j
  | Proc.On_fifo_read i, K_fifo_r j -> i = j
  | Proc.On_fifo_write i, K_fifo_w j -> i = j
  | Proc.On_accept i, K_accept j -> i = j
  | Proc.On_connq i, K_connq j -> i = j
  | Proc.On_signal, K_signal _ -> true
  | Proc.On_select s, K_pipe_r j -> List.mem j s.rpipes
  | Proc.On_select s, K_pipe_w j -> List.mem j s.wpipes
  | Proc.On_select s, K_fifo_r j -> List.mem j s.rfifos
  | Proc.On_select s, K_fifo_w j -> List.mem j s.wfifos
  | Proc.On_select s, K_accept j -> List.mem j s.rlisten
  | _ -> false

let wake_key t key =
  match Hashtbl.find_opt t.waitqs key with
  | None -> ()
  | Some q ->
    let pids = !q in
    q := [];
    List.iter
      (fun pid ->
        match proc t pid with
        | Some p ->
          (match p.Proc.state with
           | Proc.Parked park when cond_matches park.cond key ->
             t.hooks.retry p
           | _ -> ())
        | None -> ())
      (List.rev pids)

let add_timer t ~at ev =
  let rec insert = function
    | [] -> [ at, ev ]
    | (at', _) as hd :: tl when at' <= at -> hd :: insert tl
    | rest -> (at, ev) :: rest
  in
  t.timers <- insert t.timers

let timer_pid = function T_wake pid | T_alarm pid | T_select pid -> pid

let cancel_timers_for t pid =
  t.timers <- List.filter (fun (_, ev) -> timer_pid ev <> pid) t.timers

let cancel_select_timers t pid =
  t.timers <-
    List.filter
      (fun (_, ev) -> match ev with T_select p -> p <> pid | _ -> true)
      t.timers

let has_select_timer t pid =
  List.exists
    (fun (_, ev) -> match ev with T_select p -> p = pid | _ -> false)
    t.timers

let next_timer t =
  match t.timers with [] -> None | hd :: _ -> Some hd

(* Allocation-free variant for [may_continue], which asks this on
   every inline CPU charge and trap: the earliest deadline, or
   [max_int] with no timers armed. *)
let next_timer_at t =
  match t.timers with [] -> max_int | (at, _) :: _ -> at

(* The liveness re-check every resumption makes: the process may have
   been killed (or, in principle, re-parked) while its resumption sat
   in the run queue. *)
let runnable (p : Proc.t) =
  match p.state with
  | Proc.Runnable -> true
  | Proc.Parked _ | Proc.Stopped _ | Proc.Zombie | Proc.Reaped -> false

(* May the running fibre of [p] carry on past a scheduling point at
   virtual time [at] without handing control to the scheduler?  Yes
   exactly when handing it over would change nothing:
   - the process is still runnable: a zombie whose fibre caught
     [Process_killed] must be discarded by the scheduler's resumption,
     not carry on running user code;
   - no signal is pending, so there is nothing to deliver and nobody
     to kill or stop;
   - the run queue is empty, so the scheduler would pop this very
     fibre's resumption straight back — no other fibre's turn is
     being stolen;
   - no timer is due at or before [at], so the scheduling point could
     not fire one.
   A deterministic function of simulation state: a run makes the same
   decisions every time. *)
let may_continue t (p : Proc.t) ~at =
  runnable p && p.sigs.pending = 0 && Queue.is_empty t.runq
  && next_timer_at t > at

let pop_timer t =
  match t.timers with [] -> () | _ :: tl -> t.timers <- tl

(* --- running fibres ------------------------------------------------------ *)

(* End a fibre: discontinue it with [Process_killed], swallowing
   whatever it raises on the way out. *)
let discard k =
  try Effect.Deep.discontinue k Events.Process_killed
  with Events.Process_killed | _ -> ()

(* The one way a fibre runs from the run queue: [go a b] with [p] as
   the shard's running process, provided [p] is still [runnable].
   [false], having run nothing, otherwise.  The scheduler's effect
   handler clears [running] when the fibre next performs; the clear
   here covers a fibre that finishes. *)
let run_as t (p : Proc.t) go a b =
  if runnable p then begin
    t.running <- Some p;
    go a b;
    t.running <- None;
    true
  end
  else false

(* Continue [p]'s suspended fibre with [v], or discard it if [p] is no
   longer runnable. *)
let resume t p k v =
  if not (run_as t p Effect.Deep.continue k v) then discard k

(* --- open files --------------------------------------------------------- *)

let new_file t kind ~flags =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  (match kind with
   | File.Vnode inode | File.Fifo_read (inode, _) | File.Fifo_write (inode, _)
     -> Vfs.Fs.incr_opens t.fs inode.Vfs.Inode.ino
   | File.Pipe_read _ | File.Pipe_write _ | File.Sock _ -> ());
  (match kind with
   | File.Pipe_read p -> Vfs.Pipebuf.add_reader p.buf
   | File.Pipe_write p -> Vfs.Pipebuf.add_writer p.buf
   | File.Fifo_read (_, b) -> Vfs.Pipebuf.add_reader b
   | File.Fifo_write (_, b) -> Vfs.Pipebuf.add_writer b
   | File.Sock _ ->
     (* a connection's pipe references belong to the conn from the
        moment it is established ([new_conn_pair]), not to the file
        wrapping it — accept adopts a pending conn whose references
        connect already took, so taking them again here would double
        count *)
     ()
   | File.Vnode _ -> ());
  File.make ~id kind ~flags

let new_pipe t =
  let pipe_id = t.next_pipe_id in
  t.next_pipe_id <- pipe_id + 1;
  let pipe = { File.pipe_id; buf = Vfs.Pipebuf.create () } in
  let r = new_file t (File.Pipe_read pipe) ~flags:Flags.Open.o_rdonly in
  let w = new_file t (File.Pipe_write pipe) ~flags:Flags.Open.o_wronly in
  r, w

(* A crossed pair of fresh pipes forming both endpoints of a stream
   connection, references for both sides already taken: the first conn
   reads p1 / writes p2, the second the reverse. *)
let new_conn_pair t =
  let mk () =
    let pipe_id = t.next_pipe_id in
    t.next_pipe_id <- pipe_id + 1;
    { File.pipe_id; buf = Vfs.Pipebuf.create () }
  in
  let p1 = mk () in
  let p2 = mk () in
  Vfs.Pipebuf.add_reader p1.buf;
  Vfs.Pipebuf.add_writer p1.buf;
  Vfs.Pipebuf.add_reader p2.buf;
  Vfs.Pipebuf.add_writer p2.buf;
  { File.rx = p1; tx = p2; shut_rd = false; shut_wr = false },
  { File.rx = p2; tx = p1; shut_rd = false; shut_wr = false }

let new_listener t ~backlog =
  let lid = t.next_listener_id in
  t.next_listener_id <- lid + 1;
  { File.lid; backlog = max 1 backlog; pending = Queue.create ();
    lclosed = false }

let new_socketpair t =
  let c1, c2 = new_conn_pair t in
  let a =
    new_file t (File.Sock { File.sock = File.S_conn c1 })
      ~flags:Flags.Open.o_rdwr
  in
  let b =
    new_file t (File.Sock { File.sock = File.S_conn c2 })
      ~flags:Flags.Open.o_rdwr
  in
  a, b

let install_fd t p ?(cloexec = false) ?(from = 0) file =
  ignore t;
  match Proc.alloc_fd ~from p with
  | None -> Error Errno.EMFILE
  | Some fd ->
    p.Proc.fds.(fd) <- Some { File.file; cloexec };
    Ok fd

let retain_file (f : File.t) = f.refs <- f.refs + 1

(* Release one direction of a connection endpoint.  The shut flags make
   these idempotent: [shutdown] drops a direction early, and the final
   close must then skip it — each pipe reference is dropped exactly
   once over the endpoint's lifetime. *)
let shut_conn_rd t (c : File.conn) =
  if not c.File.shut_rd then begin
    c.File.shut_rd <- true;
    Vfs.Pipebuf.drop_reader c.File.rx.buf;
    (* the peer may be blocked writing into our receive pipe *)
    wake_key t (K_pipe_w c.File.rx.pipe_id)
  end

let shut_conn_wr t (c : File.conn) =
  if not c.File.shut_wr then begin
    c.File.shut_wr <- true;
    Vfs.Pipebuf.drop_writer c.File.tx.buf;
    (* the peer may be blocked reading from our send pipe *)
    wake_key t (K_pipe_r c.File.tx.pipe_id)
  end

let release_conn t (c : File.conn) =
  shut_conn_rd t c;
  shut_conn_wr t c

(* Drop [addr]'s binding iff it still belongs to this socket. *)
let unbind t addr (s : File.sock) =
  match Hashtbl.find_opt t.bindings addr with
  | Some s' when s' == s -> Hashtbl.remove t.bindings addr
  | _ -> ()

let release_file t (f : File.t) =
  f.refs <- f.refs - 1;
  if f.refs <= 0 then begin
    match f.kind with
    | File.Vnode inode ->
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino
    | File.Pipe_read p ->
      Vfs.Pipebuf.drop_reader p.buf;
      wake_key t (K_pipe_w p.pipe_id)
    | File.Pipe_write p ->
      Vfs.Pipebuf.drop_writer p.buf;
      wake_key t (K_pipe_r p.pipe_id)
    | File.Fifo_read (inode, b) ->
      Vfs.Pipebuf.drop_reader b;
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino;
      wake_key t (K_fifo_w inode.Vfs.Inode.ino)
    | File.Fifo_write (inode, b) ->
      Vfs.Pipebuf.drop_writer b;
      Vfs.Fs.decr_opens t.fs inode.Vfs.Inode.ino;
      wake_key t (K_fifo_r inode.Vfs.Inode.ino)
    | File.Sock s ->
      (match s.File.sock with
       | File.S_fresh -> ()
       | File.S_bound addr -> unbind t addr s
       | File.S_conn c -> release_conn t c
       | File.S_listening (addr, l) ->
         unbind t addr s;
         l.File.lclosed <- true;
         (* connections established but never accepted are reset: both
            directions of each pending server endpoint go away, so the
            peer reads EOF and its writes raise EPIPE *)
         Queue.iter (release_conn t) l.File.pending;
         Queue.clear l.File.pending;
         (* blocked accepters must fail with EINVAL, blocked connectors
            with ECONNRESET — both re-check on retry *)
         wake_key t (K_accept l.File.lid);
         wake_key t (K_connq l.File.lid))
  end

let close_fd t p fd =
  match Proc.fd p fd with
  | None -> Error Errno.EBADF
  | Some entry ->
    p.Proc.fds.(fd) <- None;
    release_file t entry.File.file;
    Ok ()

(* --- signals ------------------------------------------------------------ *)

let is_stop_signal s =
  s = Signal.sigstop || s = Signal.sigtstp
  || s = Signal.sigttin || s = Signal.sigttou

let disposition (p : Proc.t) s =
  if s = Signal.sigkill then `Terminate
  else if s = Signal.sigstop then `Stop
  else
    match Proc.handler p s with
    | Value.H_fn _ -> `Handler
    | Value.H_ignore -> `Ignore
    | Value.H_default ->
      (match Signal.default_action s with
       | Signal.Terminate -> `Terminate
       | Signal.Ignore -> `Ignore
       | Signal.Stop -> `Stop
       | Signal.Continue -> `Continue)

let set_pending (p : Proc.t) s =
  p.sigs.pending <- Signal.Mask.add p.sigs.pending s

let clear_pending (p : Proc.t) s =
  p.sigs.pending <- Signal.Mask.remove p.sigs.pending s

let blocked (p : Proc.t) s =
  Signal.Mask.mem p.sigs.mask s
  && s <> Signal.sigkill && s <> Signal.sigstop

(* Forward references resolved after do_exit is defined. *)
let rec post_signal t (p : Proc.t) s =
  match p.state with
  | Proc.Zombie | Proc.Reaped -> ()
  | Proc.Runnable | Proc.Parked _ | Proc.Stopped _ ->
    if s = Signal.sigcont then begin
      (* a continue clears pending stops, and vice versa *)
      List.iter (clear_pending p)
        [ Signal.sigstop; Signal.sigtstp; Signal.sigttin; Signal.sigttou ]
    end;
    if is_stop_signal s then clear_pending p Signal.sigcont;
    set_pending p s;
    act_on_pending t p s

and act_on_pending t (p : Proc.t) s =
  if blocked p s then ()
  else
    match disposition p s with
    | `Ignore -> clear_pending p s
    | `Continue ->
      clear_pending p s;
      (match p.state with
       | Proc.Stopped st ->
         p.state <- Proc.Runnable;
         enqueue t (fun () -> resume t p st.sk st.reply)
       | Proc.Runnable | Proc.Parked _ | Proc.Zombie | Proc.Reaped -> ())
    | `Terminate ->
      (match p.state with
       | Proc.Parked park ->
         clear_pending p s;
         terminate_fiber t p park.k (Flags.Wait.sig_status s)
       | Proc.Stopped st ->
         clear_pending p s;
         terminate_fiber t p st.sk (Flags.Wait.sig_status s)
       | Proc.Runnable ->
         (* acted on at the next trap boundary via collect_deliverable;
            SIGKILL additionally prevents further progress there *)
         ()
       | Proc.Zombie | Proc.Reaped -> ())
    | `Handler ->
      (match p.state with
       | Proc.Parked park ->
         (* interrupt the slow call: EINTR plus handler delivery.  If
            the call was a select with a timeout armed, its T_select
            timer must die with it — a stale one would later fire into
            whatever call the process makes next *)
         clear_pending p s;
         cancel_select_timers t p.pid;
         (match park.saved_mask with
          | Some m -> p.sigs.mask <- m
          | None -> ());
         p.state <- Proc.Runnable;
         let reply =
           { Events.res = Error Errno.EINTR; deliver = [ s ] }
         in
         enqueue t (fun () -> resume t p park.k reply)
       | Proc.Runnable | Proc.Stopped _ | Proc.Zombie | Proc.Reaped ->
         (* delivered at the next trap boundary *)
         ())
    | `Stop ->
      (match p.state with
       | Proc.Runnable | Proc.Parked _ ->
         (* simplification: stops take effect at the next trap
            boundary (a process blocked forever will not stop) *)
         ()
       | Proc.Stopped _ | Proc.Zombie | Proc.Reaped -> clear_pending p s)

and terminate_fiber :
  'a. t -> Proc.t -> ('a, unit) Effect.Deep.continuation -> int -> unit =
  fun t p k status ->
  do_exit t p status;
  discard k

and do_exit t (p : Proc.t) status =
  (match p.state with
   | Proc.Zombie | Proc.Reaped -> ()
   | Proc.Runnable | Proc.Parked _ | Proc.Stopped _ ->
     (* the exit trap's span never returns to its opener; force-close *)
     Obs.abort_pid p.pid;
     (* close every descriptor *)
     Array.iteri
       (fun i entry ->
         match entry with
         | Some (e : File.fd_entry) ->
           p.fds.(i) <- None;
           release_file t e.file
         | None -> ())
       p.fds;
     cancel_timers_for t p.pid;
     p.state <- Proc.Zombie;
     p.exit_status <- status;
     t.retired_syscalls <- t.retired_syscalls + p.syscall_count;
     p.syscall_count <- 0;
     (* orphans go to init (pid 1); init's own orphans self-reap *)
     Hashtbl.iter
       (fun _ (c : Proc.t) ->
         if c.ppid = p.pid && c.state <> Proc.Reaped then begin
           c.ppid <- 1;
           if c.state = Proc.Zombie && p.pid <> 1 then begin
             match proc t 1 with
             | Some init when init.state = Proc.Zombie || init.state = Proc.Reaped ->
               c.state <- Proc.Reaped
             | _ -> ()
           end
         end)
       t.procs;
     (* notify the parent *)
     (match proc t p.ppid with
      | Some parent when parent.state <> Proc.Zombie
                      && parent.state <> Proc.Reaped ->
        post_signal t parent Signal.sigchld;
        wake_key t (K_child parent.pid)
      | _ ->
        (* no live parent: nobody will wait for us *)
        p.state <- Proc.Reaped))

let collect_deliverable _t (p : Proc.t) =
  if p.sigs.pending = 0 then []
  else begin
    let deliver = ref [] in
    for s = 1 to Signal.max_signal do
      if Signal.Mask.mem p.sigs.pending s && not (blocked p s) then begin
        match disposition p s with
        | `Ignore | `Continue -> clear_pending p s
        | `Handler ->
          clear_pending p s;
          deliver := s :: !deliver
        | `Terminate | `Stop ->
          (* the caller handles terminal dispositions via proc state;
             mark them by leaving the bit set *)
          ()
      end
    done;
    List.rev !deliver
  end

let wake_parked_with t (p : Proc.t) (park : Proc.park) reply =
  p.state <- Proc.Runnable;
  enqueue t (fun () -> resume t p park.k reply)

(* --- trace hooks -------------------------------------------------------- *)

let set_trace_hook t ?(cost_us = 0) hook =
  t.trace_hook <- hook;
  t.trace_hook_cost_us <- cost_us

let run_trace_hook t p call res =
  match t.trace_hook with
  | None -> ()
  | Some hook ->
    charge t t.trace_hook_cost_us;
    hook p call res
