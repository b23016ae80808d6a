module Dev = Dev
module Events = Events
module File = File
module Kstate = Kstate
module Proc = Proc
module Registry = Registry
module Syscalls = Syscalls
module Trap = Trap
module Uspace = Uspace

open Abi

type t = Kstate.t

let log_src = Logs.Src.create "kernel" ~doc:"simulated kernel"
module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- the fibre root ------------------------------------------------------- *)

let run_fiber (t : t) (proc : Proc.t) (body : unit -> int) =
  let open Effect.Deep in
  (* crt0 semantics: a body that returns exits via the exit system
     call, so interposition agents observe every termination; the
     [retc] below is only a backstop should an agent swallow it *)
  let body () =
    let code = body () in
    ignore (Uspace.syscall (Abi.Call.Exit code));
    code
  in
  match_with body ()
    { retc =
        (fun status -> Kstate.do_exit t proc (Flags.Wait.exit_status status));
      exnc =
        (fun e ->
          match e with
          | Events.Process_killed -> ()
          | Events.Process_exit code ->
            Kstate.do_exit t proc (Flags.Wait.exit_status code)
          | e ->
            Log.warn (fun m ->
              m "pid %d (%s): uncaught exception %s" proc.pid proc.name
                (Printexc.to_string e));
            Kstate.do_exit t proc (Flags.Wait.sig_status Signal.sigabrt));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          (* whatever the effect, the fibre has stopped running *)
          t.running <- None;
          match eff with
          | Events.Suspend settle ->
            Some (fun (k : (a, unit) continuation) -> settle k)
          | Events.Cpu us ->
            Some (fun (k : (a, unit) continuation) ->
              proc.utime_us <- proc.utime_us + us;
              Kstate.charge t us;
              let deliver = Kstate.collect_deliverable t proc in
              (match Trap.pending_terminal proc with
               | `Kill (s, status) ->
                 proc.sigs.pending <-
                   Signal.Mask.remove proc.sigs.pending s;
                 Kstate.terminate_fiber t proc k status
               | `Stop _ | `None ->
                 (* stops at a pure compute point are deferred to the
                    next trap *)
                 Trap.enqueue_resume t proc k deliver))
          | Events.Exec_load spec ->
            Some (fun (k : (a, unit) continuation) ->
              ignore (k : (a, unit) continuation);
              Trap.start_exec t proc spec)
          | Events.Set_emulation (numbers, handler) ->
            Some (fun (k : (a, unit) continuation) ->
              (* the chain slot is the handler closure itself (no
                 per-trap option match), or the canonical kernel jump
                 when cleared *)
              let slot =
                match handler with
                | Some h -> h
                | None -> Proc.chain_unset
              in
              let chain = proc.emul.chain in
              List.iter
                (fun n ->
                  if n >= 0 && n < Array.length chain then chain.(n) <- slot)
                numbers;
              Trap.enqueue_resume t proc k ())
          | Events.Get_emulation n ->
            Some (fun (k : (a, unit) continuation) ->
              let chain = proc.emul.chain in
              let h =
                if n < 0 || n >= Array.length chain then None
                else
                  let h = chain.(n) in
                  if h == Proc.chain_unset then None else Some h
              in
              Trap.enqueue_resume t proc k h)
          | Events.Set_emulation_signal h ->
            Some (fun (k : (a, unit) continuation) ->
              proc.emul.sig_emul <- h;
              Trap.enqueue_resume t proc k ())
          | Events.Get_emulation_signal ->
            Some (fun (k : (a, unit) continuation) ->
              Trap.enqueue_resume t proc k proc.emul.sig_emul)
          | _ -> None) }

let enqueue_start (t : t) (proc : Proc.t) (body : unit -> int) =
  Kstate.enqueue t (fun () ->
    ignore (Kstate.run_as t proc (run_fiber t) proc body))

(* --- the scheduler --------------------------------------------------------- *)

let fire_timer (t : t) (ev : Kstate.timer_event) =
  match ev with
  | Kstate.T_alarm pid ->
    (match Kstate.proc t pid with
     | Some proc ->
       proc.alarm_at <- None;
       Kstate.post_signal t proc Signal.sigalrm
     | None -> ())
  | Kstate.T_wake pid ->
    (match Kstate.proc t pid with
     | Some proc ->
       (match proc.state with
        | Proc.Parked ({ cond = Proc.On_time _; _ } as park) ->
          proc.state <- Proc.Runnable;
          Trap.finish_reply t proc park.k
            { Events.res = Value.ret 0; deliver = [] }
        | Proc.Runnable | Proc.Parked _ | Proc.Stopped _
        | Proc.Zombie | Proc.Reaped -> ())
     | None -> ())
  | Kstate.T_select pid ->
    (match Kstate.proc t pid with
     | Some proc ->
       (match proc.state with
        | Proc.Parked ({ cond = Proc.On_select _; _ } as park) ->
          (* timeout: no descriptors ready *)
          proc.state <- Proc.Runnable;
          Trap.finish_reply t proc park.k
            { Events.res = Value.ret 0 ~r1:0; deliver = [] }
        | Proc.Runnable | Proc.Parked _ | Proc.Stopped _
        | Proc.Zombie | Proc.Reaped -> ())
     | None -> ())

let kill_stragglers (t : t) =
  let stragglers =
    List.filter
      (fun (p : Proc.t) ->
        match p.state with
        | Proc.Parked _ | Proc.Stopped _ -> true
        | Proc.Runnable | Proc.Zombie | Proc.Reaped -> false)
      (Kstate.live_procs t)
  in
  List.iter
    (fun (p : Proc.t) ->
      Log.warn (fun m ->
        m "deadlock: killing pid %d (%s)" p.pid p.name);
      t.deadlock_kills <- t.deadlock_kills + 1;
      match p.state with
      | Proc.Parked { k; _ } | Proc.Stopped { sk = k; _ } ->
        Kstate.terminate_fiber t p k (Flags.Wait.sig_status Signal.sigkill)
      | Proc.Runnable | Proc.Zombie | Proc.Reaped -> ())
    stragglers;
  stragglers <> []

(* Bounded scheduling: run every runnable fibre and fire every timer
   with deadline ≤ [until], then report why the shard stopped.  The
   classic free-running scheduler is [step ~until:max_int] in a loop;
   a [Cluster] uses finite horizons to keep sibling shards' virtual
   clocks within one quantum of each other. *)
let rec step (t : t) ~until =
  (* timers whose deadline virtual time has already passed fire at
     every scheduling point, so runnable (even spinning) processes
     cannot starve them *)
  match Kstate.next_timer t with
  | Some (at, ev) when at <= Sim.Clock.now_us t.clock ->
    Kstate.pop_timer t;
    fire_timer t ev;
    step t ~until
  | timer ->
    match Queue.take_opt t.runq with
    | Some thunk ->
      thunk ();
      step t ~until
    | None ->
      match timer with
      | Some (at, ev) when at <= until ->
        Kstate.pop_timer t;
        Sim.Clock.advance_to t.clock at;
        fire_timer t ev;
        step t ~until
      | Some (at, _) -> `Sleep_until at
      | None -> `Idle

let rec sched_loop (t : t) =
  match step t ~until:max_int with
  | `Sleep_until _ -> assert false (* an unbounded step consumes every timer *)
  | `Idle -> if kill_stragglers t then sched_loop t

(* --- entering a shard --------------------------------------------------------- *)

(* Install [t] as the shard the handle-less code paths (envelope
   codecs, uspace stubs, agents) reach: its obs engine, which carries
   its codec and pool counters, and the handle itself, which carries
   its running process.  The moral equivalent of loading a CPU's task
   register. *)
let enter (t : t) =
  Obs.install t.obs;
  Kstate.Ambient.current := Some t

(* Enter [t] for the duration of [f], restoring whatever was installed
   before (exception-safe).  The cluster driver round-robins shards
   with this. *)
let with_shard (t : t) f =
  let prev_obs = Obs.installed () in
  let prev_amb = !Kstate.Ambient.current in
  enter t;
  Fun.protect
    ~finally:(fun () ->
      Obs.install prev_obs;
      Kstate.Ambient.current := prev_amb)
    f

let current () = !Kstate.Ambient.current

let current_exn () =
  match !Kstate.Ambient.current with
  | Some t -> t
  | None -> failwith "no current kernel shard (called outside a simulation?)"

(* --- creation and boot ------------------------------------------------------ *)

let create ?shard_id () =
  let t = Kstate.create ?shard_id () in
  t.hooks <-
    { t.hooks with
      Kstate.spawn = (fun proc body -> enqueue_start t proc body);
      retry = (fun proc -> Trap.retry t proc) };
  (* give this shard's observability engine this shard's clock and
     current-process context; they live and die with the handle *)
  Obs.with_engine t.obs (fun () ->
    Obs.set_clock (fun () -> Sim.Clock.now_us t.clock);
    Obs.set_context (fun () ->
        match t.running with Some p -> p.Proc.pid | None -> 0);
    (* causal edge endpoints carry the shard id — span ids are unique
       only per engine (DESIGN.md §3.9) *)
    Obs.set_shard t.shard_id);
  (* a fresh kernel becomes the current shard, so the established
     create-configure-boot sequences keep addressing it *)
  enter t;
  t

let open_tty_fds (t : t) (proc : Proc.t) =
  match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:proc.cwd "/dev/tty" with
  | Error _ -> ()
  | Ok inode ->
    let mkfd flags =
      let file = Kstate.new_file t (File.Vnode inode) ~flags in
      ignore (Kstate.install_fd t proc file)
    in
    mkfd Flags.Open.o_rdonly;
    mkfd Flags.Open.o_wronly;
    mkfd Flags.Open.o_wronly

(* Register and enqueue a session's init process without scheduling
   anything yet; [boot] runs it to completion, a cluster enqueues one
   per shard and drives them all. *)
let spawn_init (t : t) ~name body =
  let pid = Kstate.alloc_pid t in
  if pid = 1 then begin
    (* baselines of [host_stats], taken here so that host-side set-up
       before boot is not counted as trap work.  [Gc.minor_words] reads
       the live allocation pointer; [quick_stat]'s field lags until the
       next minor collection *)
    let q = Gc.quick_stat () in
    t.host_cpu_t0 <- Sys.time ();
    t.host_minor_words_t0 <- Gc.minor_words ();
    t.host_promoted_words_t0 <- q.Gc.promoted_words;
    t.host_major_collections_t0 <- q.Gc.major_collections
  end;
  let proc =
    Proc.create ~pid ~ppid:0 ~pgrp:pid ~name
      ~cred:Vfs.Fs.root_cred ~cwd:(Vfs.Fs.root_ino t.fs)
  in
  Kstate.add_proc t proc;
  open_tty_fds t proc;
  enqueue_start t proc body;
  proc

let boot (t : t) ~name body =
  enter t;
  let proc = spawn_init t ~name body in
  sched_loop t;
  proc.Proc.exit_status

(* --- host-side filesystem helpers -------------------------------------------- *)

let fs (t : t) = t.fs
let clock (t : t) = t.clock

let mkdir_p (t : t) path =
  let comps = List.filter (fun s -> s <> "") (String.split_on_char '/' path) in
  let root = Vfs.Fs.root_ino t.fs in
  ignore
    (List.fold_left
       (fun prefix comp ->
         let dir = prefix ^ "/" ^ comp in
         (match
            Vfs.Fs.mkdir t.fs Vfs.Fs.root_cred ~cwd:root dir ~perm:0o755
          with
          | Ok _ | Error Errno.EEXIST -> ()
          | Error e ->
            invalid_arg
              (Printf.sprintf "mkdir_p %s: %s" dir (Errno.name e)));
         dir)
       "" comps)

let write_file (t : t) ~path ?(perm = 0o644) content =
  mkdir_p t (Filename.dirname path);
  let root = Vfs.Fs.root_ino t.fs in
  match
    Vfs.Fs.open_lookup t.fs Vfs.Fs.root_cred ~cwd:root path
      ~flags:Flags.Open.(o_wronly lor o_creat lor o_trunc)
      ~perm
  with
  | Error e ->
    invalid_arg (Printf.sprintf "write_file %s: %s" path (Errno.name e))
  | Ok (inode, _) ->
    (match inode.Vfs.Inode.kind with
     | Vfs.Inode.Reg data ->
       ignore (Vfs.Filedata.write data ~pos:0 content);
       inode.Vfs.Inode.perm <- perm
     | _ -> invalid_arg "write_file: not a regular file")

let read_file (t : t) path =
  let root = Vfs.Fs.root_ino t.fs in
  match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root path with
  | Error _ -> None
  | Ok inode ->
    (match inode.Vfs.Inode.kind with
     | Vfs.Inode.Reg data -> Some (Vfs.Filedata.to_string data)
     | _ -> None)

let exists (t : t) path =
  let root = Vfs.Fs.root_ino t.fs in
  Result.is_ok (Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root path)

let install_image (t : t) ~path ~image =
  write_file t ~path ~perm:0o755 (Registry.file_content image)

let populate_standard (t : t) =
  let root = Vfs.Fs.root_ino t.fs in
  mkdir_p t "/dev";
  mkdir_p t "/tmp";
  mkdir_p t "/bin";
  mkdir_p t "/usr/bin";
  mkdir_p t "/etc";
  mkdir_p t "/home";
  (match Vfs.Fs.resolve t.fs Vfs.Fs.root_cred ~cwd:root "/tmp" with
   | Ok inode -> inode.Vfs.Inode.perm <- 0o1777
   | Error _ -> ());
  let dev path rdev =
    match
      Vfs.Fs.mkchardev t.fs Vfs.Fs.root_cred ~cwd:root path ~perm:0o666 ~rdev
    with
    | Ok _ | Error Errno.EEXIST -> ()
    | Error e ->
      invalid_arg (Printf.sprintf "mknod %s: %s" path (Errno.name e))
  in
  dev "/dev/null" Dev.rdev_null;
  dev "/dev/zero" Dev.rdev_zero;
  dev "/dev/tty" Dev.rdev_tty;
  dev "/dev/console" Dev.rdev_console;
  write_file t ~path:"/etc/motd"
    "4.3 BSD UNIX (simulated) -- interposition agents welcome\n"

(* --- console and misc --------------------------------------------------------- *)

let console_output (t : t) = Dev.Console.contents t.console
let clear_console (t : t) = Dev.Console.clear t.console
let feed_console (t : t) s = Dev.Console.feed t.console s
let echo_console_to (t : t) f = Dev.Console.set_echo t.console f

let elapsed_seconds (t : t) = Sim.Clock.seconds t.clock
let total_syscalls = Kstate.total_syscalls
let deadlock_kills (t : t) = t.deadlock_kills
let shard_id (t : t) = t.shard_id

let registry (t : t) = t.registry
let register_image (t : t) name image = Registry.register t.registry name image

let codec_stats (t : t) = Envelope.Stats.snapshot_of (Obs.counters_of t.obs)
let reset_codec_stats (t : t) = Envelope.Stats.reset_of (Obs.counters_of t.obs)
let env_pool_stats (t : t) =
  Envelope.Stats.pool_snapshot_of (Obs.counters_of t.obs)

let metrics (t : t) = Obs.metrics_of t.obs

(* --- host-side cost estimates ------------------------------------------------ *)

(* Raw-speed counters next to the virtual tables: how much *host* CPU
   and allocation the shard has burned per simulated trap since its
   first process started.  [Sys.time]/GC counters are process-wide
   (this library deliberately has no unix dependency), so these are
   estimates — exact when one shard dominates the process, which is
   the common deployment; the bench hostspeed harness measures tight windows with
   its own clocks when precision matters. *)
type host_stats = {
  h_traps : int;
  h_cpu_s : float;      (* process CPU since the shard's first process *)
  h_ns_per_trap : float;
  h_minor_words_per_trap : float;
  h_promoted_words : float;
  h_major_collections : int;
  h_env_pool_hit_rate : float;   (* hits / (hits + misses); 1.0 when idle *)
}

let host_stats (t : t) =
  let q = Gc.quick_stat () in
  let traps = (codec_stats t).Envelope.Stats.traps in
  let cpu = Sys.time () -. t.host_cpu_t0 in
  let per d n = if d > 0 then n /. float_of_int d else 0.0 in
  let rate (hits : int) (misses : int) =
    let total = hits + misses in
    if total = 0 then 1.0 else float_of_int hits /. float_of_int total
  in
  let ep = env_pool_stats t in
  { h_traps = traps;
    h_cpu_s = cpu;
    h_ns_per_trap = per traps (cpu *. 1e9);
    h_minor_words_per_trap =
      per traps (Gc.minor_words () -. t.host_minor_words_t0);
    h_promoted_words = q.Gc.promoted_words -. t.host_promoted_words_t0;
    h_major_collections =
      q.Gc.major_collections - t.host_major_collections_t0;
    h_env_pool_hit_rate =
      rate ep.Envelope.Stats.hits ep.Envelope.Stats.misses }

let host_stats_json (h : host_stats) =
  Obs.Json.Obj
    [ ("traps", Obs.Json.Int h.h_traps);
      ("cpu_s", Obs.Json.Float h.h_cpu_s);
      ("ns_per_trap", Obs.Json.Float h.h_ns_per_trap);
      ("minor_words_per_trap", Obs.Json.Float h.h_minor_words_per_trap);
      ("promoted_words", Obs.Json.Float h.h_promoted_words);
      ("major_collections", Obs.Json.Int h.h_major_collections);
      ("env_pool_hit_rate", Obs.Json.Float h.h_env_pool_hit_rate) ]

(* One document for every runtime statistic of one shard: span/latency
   metrics from its [Obs] engine plus its codec (incl. [fast_path] and
   [chained]), envelope-pool and host-side counters.
   [/obs/metrics] serves exactly this JSON, so programs inside the
   simulation and hosts outside it read the same numbers. *)
(* --- watchdogs ---------------------------------------------------------------- *)

(* Rules live on the shard handle (never the obs engine), so they
   survive [Obs.reset] between workload phases and each shard of a
   cluster can carry its own set.  Evaluation adapts the metrics
   snapshot into the plain rows [Obs.Watch.eval] consumes — obs stays
   below the kernel and below abi. *)
let set_watch (t : t) rules = t.watch <- rules
let watch_rules (t : t) = t.watch

let watch_input_of (m : Obs.metrics) ~env_pool_misses =
  { Obs.Watch.wi_sys =
      List.map
        (fun (s : Obs.syscall_metrics) ->
          { Obs.Watch.ws_sysno = s.Obs.sm_sysno;
            ws_calls = s.Obs.sm_calls;
            ws_errors = s.Obs.sm_errors;
            ws_p99_us = Obs.Hist.quantile s.Obs.sm_hist 0.99 })
        m.Obs.m_syscalls;
    wi_aborted = m.Obs.m_aborted;
    wi_env_pool_misses = env_pool_misses }

let watch_verdicts (t : t) =
  let misses = (env_pool_stats t).Envelope.Stats.misses in
  Obs.Watch.eval t.watch (watch_input_of (Obs.metrics_of t.obs) ~env_pool_misses:misses)

let metrics_json (t : t) =
  let base = Obs.metrics_to_json ~name:Abi.Sysno.name (Obs.metrics_of t.obs) in
  let codec = Envelope.Stats.to_json (codec_stats t) in
  let epool = Envelope.Stats.pool_to_json (env_pool_stats t) in
  let host = host_stats_json (host_stats t) in
  let watchdogs = Obs.Watch.verdicts_to_json (watch_verdicts t) in
  match base with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (fields
      @ [ ("codec", codec); ("env_pool", epool);
          ("host", host); ("watchdogs", watchdogs) ])
  | other -> other
let drain_obs (t : t) = Obs.drain_of t.obs
let obs_engine (t : t) = t.obs

let causal_edges (t : t) = Obs.causal_edges_of t.obs
let drain_causal (t : t) = Obs.causal_drain_of t.obs

(* A human label for chrome's process rows: the image (or init-body)
   name when the pid is still in the table, the bare pid otherwise
   (exited processes keep their spans). *)
let pid_label (t : t) pid =
  match Kstate.proc t pid with
  | Some p -> Printf.sprintf "pid %d %s" pid p.Proc.name
  | None -> Printf.sprintf "pid %d" pid

let post_signal (t : t) ~pid s =
  match Kstate.proc t pid with
  | Some proc -> Kstate.post_signal t proc s
  | None -> ()

let set_trace_hook = Kstate.set_trace_hook

(* --- deterministic multi-shard driver ----------------------------------------- *)

(* N single-domain shards with independent virtual clocks, stepped
   round-robin in shard-id order over fixed virtual-time quanta.
   Cross-shard events (signals, for now) are mailed with a (virtual
   send time, sender shard, sequence) stamp and delivered at quantum
   boundaries sorted by exactly that triple — a deterministic function
   of simulation state alone, so an N-shard run is byte-reproducible
   (DESIGN.md §3.6). *)
module Cluster = struct
  (* Besides the delivery payload, a signal mail carries its causal
     origin — (shard, span, pid) of the sender at [send] time — so the
     receiving shard can record a cross-shard Signal edge before
     posting (DESIGN.md §3.9).  [o_span] may be a sampler sentinel;
     edge recording keeps it verbatim. *)
  type event =
    | Post_signal of
        { pid : int; signal : int; o_shard : int; o_span : int; o_pid : int }

  type mail = {
    m_ts : int;   (* sender's virtual clock at send *)
    m_src : int;  (* sender shard id: the deterministic tie-break *)
    m_seq : int;  (* per-cluster sequence: total order within (ts, src) *)
    m_dst : int;
    m_ev : event;
  }

  type nonrec t = {
    shards : t array;
    quantum_us : int;
    mutable mailbox : mail list;
    mutable seq : int;
  }

  let enqueue_mail c (src : Kstate.t) ~dst ~pid ~signal =
    if dst < 0 || dst >= Array.length c.shards then
      invalid_arg "Cluster.send: no such shard";
    (* runs in the sending fibre, its engine installed: the origin
       stamp is the sender's innermost open span *)
    let o_shard, o_span, o_pid = Obs.causal_origin () in
    c.seq <- c.seq + 1;
    c.mailbox <-
      { m_ts = Sim.Clock.now_us src.Kstate.clock;
        m_src = src.Kstate.shard_id;
        m_seq = c.seq;
        m_dst = dst;
        m_ev = Post_signal { pid; signal; o_shard; o_span; o_pid } }
      :: c.mailbox

  let default_quantum_us = 50_000

  let create ?(quantum_us = default_quantum_us) ~shards:n () =
    if n < 1 then invalid_arg "Cluster.create: need at least one shard";
    if quantum_us < 1 then invalid_arg "Cluster.create: quantum must be positive";
    let c =
      { shards = Array.init n (fun i -> create ~shard_id:i ());
        quantum_us; mailbox = []; seq = 0 }
    in
    (* in-fibre [send] reaches the cluster through the sending shard *)
    Array.iter
      (fun (t : Kstate.t) ->
        t.hooks <- { t.hooks with Kstate.send = enqueue_mail c t })
      c.shards;
    c

  let shards c = Array.length c.shards
  let shard c i = c.shards.(i)

  let boot_shard c i ~name body =
    let t = c.shards.(i) in
    with_shard t (fun () -> spawn_init t ~name body)

  let send ~dst ~pid ~signal =
    match current () with
    | Some t -> t.hooks.send ~dst ~pid ~signal
    | None -> invalid_arg "Cluster.send: no current shard"

  let deliver c horizon =
    let due, later =
      List.partition (fun m -> m.m_ts <= horizon) c.mailbox
    in
    c.mailbox <- later;
    match due with
    | [] -> false
    | due ->
      let due =
        List.sort
          (fun a b ->
            compare (a.m_ts, a.m_src, a.m_seq) (b.m_ts, b.m_src, b.m_seq))
          due
      in
      List.iter
        (fun m ->
          let dst = c.shards.(m.m_dst) in
          with_shard dst (fun () ->
            match m.m_ev with
            | Post_signal { pid; signal; o_shard; o_span; o_pid } ->
              (* queue the sender's half-edge under the *receiving*
                 shard's engine before posting: delivery in uspace then
                 completes it exactly as a local kill would *)
              Obs.causal_signal_send_remote ~src_shard:o_shard
                ~src_span:o_span ~src_pid:o_pid ~dst_pid:pid ~signal;
              post_signal dst ~pid signal))
        due;
      true

  let run c =
    let n = Array.length c.shards in
    (* Run every shard up to [horizon], re-delivering any mail that
       lands inside the window, until the whole cluster is quiescent at
       this horizon.  Returns the earliest future wake-up. *)
    let rec drain_horizon horizon =
      let next = ref max_int in
      for i = 0 to n - 1 do
        let t = c.shards.(i) in
        with_shard t (fun () ->
          match step t ~until:horizon with
          | `Sleep_until at -> if at < !next then next := at
          | `Idle -> ())
      done;
      if deliver c horizon then drain_horizon horizon
      else begin
        List.iter (fun m -> if m.m_ts < !next then next := m.m_ts) c.mailbox;
        !next
      end
    in
    let rec rounds horizon =
      let next = drain_horizon horizon in
      if next < max_int then
        (* jump idle gaps, but never retreat: each new horizon is at
           least a quantum past the old one *)
        rounds (max next (horizon + c.quantum_us))
    in
    rounds c.quantum_us;
    (* quiescent everywhere: give each shard its straggler pass
       (deadlocked processes are killed exactly as under [boot]) *)
    Array.iter (fun t -> with_shard t (fun () -> sched_loop t)) c.shards

  (* --- cluster-wide observability ------------------------------------- *)

  let metrics c =
    Obs.merge_metrics
      (Array.to_list
         (Array.map (fun s -> Obs.metrics_of s.Kstate.obs) c.shards))

  (* Same document shape as the per-shard [metrics_json], with codec
     and record-pool counters summed field-by-field across shards and a
     [shards] field recording the fan-in. *)
  let metrics_json c =
    let base = Obs.metrics_to_json ~name:Abi.Sysno.name (metrics c) in
    let codec =
      Array.fold_left
        (fun (acc : Envelope.Stats.snapshot) s ->
          let x = codec_stats s in
          {
            Envelope.Stats.traps = acc.traps + x.traps;
            chained = acc.chained + x.chained;
            fast_path = acc.fast_path + x.fast_path;
            decodes = acc.decodes + x.decodes;
            encodes = acc.encodes + x.encodes;
            crossings = acc.crossings + x.crossings;
            agent_calls = acc.agent_calls + x.agent_calls;
            suspends = acc.suspends + x.suspends;
          })
        {
          Envelope.Stats.traps = 0;
          chained = 0;
          fast_path = 0;
          decodes = 0;
          encodes = 0;
          crossings = 0;
          agent_calls = 0;
          suspends = 0;
        }
        c.shards
    in
    let epool =
      Array.fold_left
        (fun (acc : Envelope.Stats.pool_snapshot) s ->
          let x = env_pool_stats s in
          {
            Envelope.Stats.hits = acc.hits + x.hits;
            misses = acc.misses + x.misses;
            recycled = acc.recycled + x.recycled;
            dropped = acc.dropped + x.dropped;
          })
        { Envelope.Stats.hits = 0; misses = 0; recycled = 0; dropped = 0 }
        c.shards
    in
    (* Cluster watchdogs: shard 0's rules (the cluster driver installs
       rule sets shard-by-shard; by convention shard 0 carries the
       cluster-wide set) evaluated over the *merged* metrics and the
       summed envelope-pool misses. *)
    let watchdogs =
      Obs.Watch.verdicts_to_json
        (Obs.Watch.eval c.shards.(0).Kstate.watch
           (watch_input_of (metrics c)
              ~env_pool_misses:epool.Envelope.Stats.misses))
    in
    match base with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (fields
        @ [
            ("codec", Envelope.Stats.to_json codec);
            ("env_pool", Envelope.Stats.pool_to_json epool);
            ("shards", Obs.Json.Int (Array.length c.shards));
            ("watchdogs", watchdogs);
          ])
    | other -> other

  (* Per-shard record streams, tagged with shard ids — the shape
     [Obs.Chrome.to_json_sharded] consumes for disjoint trace lanes. *)
  let drain_obs c =
    Array.to_list
      (Array.mapi (fun i s -> (i, Obs.drain_of s.Kstate.obs)) c.shards)

  (* The cluster-wide causal graph: every shard's edge table, merged
     and sorted by (virtual time, recording shard, seq) — the same
     total order the mailbox uses, so two same-seed runs produce
     byte-identical edge lists. *)
  let causal_edges c =
    Obs.Causal.sort
      (List.concat_map
         (fun s -> Obs.causal_edges_of s.Kstate.obs)
         (Array.to_list c.shards))

  let drain_causal c =
    Obs.Causal.sort
      (List.concat_map
         (fun s -> Obs.causal_drain_of s.Kstate.obs)
         (Array.to_list c.shards))
end
