(* The shard handle (DESIGN.md 3.6): kernels own all their state, so
   sequential kernels are invisible to each other, coexisting kernels
   multiplex through [with_shard], single-shard runs are deterministic,
   a send-free 2-shard cluster is exactly two solo runs, and a cluster
   with cross-shard signal traffic reproduces byte-identically. *)

open Abi

(* a small mixed-traffic session body: files, stat, and a getpid burst *)
let traffic tag n () =
  let path = "/tmp/" ^ tag in
  (match
     Libc.Unistd.open_ path
       Flags.Open.(o_wronly lor o_creat lor o_trunc)
       0o644
   with
   | Ok fd ->
     ignore (Libc.Unistd.write fd tag);
     ignore (Libc.Unistd.close fd)
   | Error e -> Alcotest.failf "open %s: %s" path (Errno.name e));
  ignore (Libc.Unistd.stat path);
  for _ = 1 to n do
    ignore (Libc.Unistd.getpid ())
  done;
  Libc.Stdio.printf "%s done\n" tag;
  0

let observe k =
  ( Sim.Clock.now_us (Kernel.clock k),
    Kernel.total_syscalls k,
    Kernel.console_output k )

(* --- satellite: two sequential kernels share nothing ------------------- *)

let test_sequential_isolation () =
  let a = Tharness.fresh_kernel () in
  Kernel.register_image a "only-in-a" (fun ~argv:_ ~envp:_ () -> 0);
  Tharness.check_exit "a session" 0 (Tharness.boot_k a (traffic "a-only" 10));
  let a_traps = Kernel.total_syscalls a in
  let a_codec = Kernel.codec_stats a in
  Alcotest.(check bool)
    "a registered its image" true
    (List.mem "only-in-a" (Kernel.Registry.registered (Kernel.registry a)));
  (* a fresh kernel observes none of it *)
  let b = Tharness.fresh_kernel () in
  Alcotest.(check bool)
    "b sees no image of a" false
    (List.mem "only-in-a" (Kernel.Registry.registered (Kernel.registry b)));
  Alcotest.(check int) "b counted no syscalls" 0 (Kernel.total_syscalls b);
  Alcotest.(check int)
    "b codec counters start at zero" 0 (Kernel.codec_stats b).Envelope.Stats.traps;
  Alcotest.(check bool)
    "b fs has no file of a" false (Kernel.exists b "/tmp/a-only");
  Tharness.check_exit "b session" 0 (Tharness.boot_k b (traffic "b-only" 4));
  (* and running b did not disturb a *)
  Alcotest.(check int) "a trap count unchanged" a_traps (Kernel.total_syscalls a);
  Alcotest.(check int)
    "a codec unchanged" a_codec.Envelope.Stats.traps
    (Kernel.codec_stats a).Envelope.Stats.traps;
  Alcotest.(check bool)
    "a fs has no file of b" false (Kernel.exists a "/tmp/b-only")

(* --- two live kernels, multiplexed by hand ------------------------------ *)

let test_with_shard_coexist () =
  let a = Tharness.fresh_kernel () in
  let b = Tharness.fresh_kernel () in
  (* b is current (create enters); visit a without losing that *)
  Kernel.with_shard a (fun () ->
    Alcotest.(check int)
      "a is current inside with_shard" (Kernel.shard_id a)
      (Kernel.shard_id (Kernel.current_exn ()));
    Kernel.write_file (Kernel.current_exn ()) ~path:"/tmp/in-a" "A");
  Alcotest.(check bool)
    "b current again after with_shard" true (Kernel.current_exn () == b);
  Alcotest.(check bool) "a got the write" true (Kernel.exists a "/tmp/in-a");
  Alcotest.(check bool) "b did not" false (Kernel.exists b "/tmp/in-a");
  (* interleave two full sessions *)
  Tharness.check_exit "b session" 0 (Tharness.boot_k b (traffic "bb" 6));
  Tharness.check_exit "a session" 0 (Tharness.boot_k a (traffic "aa" 3));
  Alcotest.(check bool) "consoles are private" true
    (Kernel.console_output a <> Kernel.console_output b)

(* --- determinism at one shard ------------------------------------------- *)

let traced_session () =
  let k = Tharness.fresh_kernel () in
  let status =
    Tharness.boot_k k (fun () ->
      Obs.enable ();
      Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||];
      let rc = traffic "traced" 20 () in
      Obs.disable ();
      rc)
  in
  Tharness.check_exit "traced session" 0 status;
  let clock_us, traps, console = observe k in
  (* The "host" block is the one deliberately wall-clock member of the
     metrics document (ns/trap, GC deltas) — every other byte is a pure
     function of simulation state, so compare with host stripped. *)
  let metrics =
    match Kernel.metrics_json k with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.filter (fun (k, _) -> k <> "host") fields)
    | j -> j
  in
  (clock_us, traps, console, Obs.Json.to_string metrics)

let test_determinism_one_shard () =
  let c1, t1, o1, m1 = traced_session () in
  let c2, t2, o2, m2 = traced_session () in
  Alcotest.(check int) "virtual clock identical" c1 c2;
  Alcotest.(check int) "trap count identical" t1 t2;
  Alcotest.(check string) "console identical" o1 o2;
  Alcotest.(check string) "metrics json byte-identical" m1 m2

(* --- a send-free 2-shard cluster is exactly two solo runs --------------- *)

let test_cluster_matches_solo () =
  let solo i =
    let k = Tharness.fresh_kernel () in
    Tharness.check_exit "solo" 0
      (Tharness.boot_k k (traffic (Printf.sprintf "w%d" i) (8 + (6 * i))));
    observe k
  in
  let s0 = solo 0 in
  let s1 = solo 1 in
  let c = Kernel.Cluster.create ~shards:2 () in
  Kernel.populate_standard (Kernel.Cluster.shard c 0);
  Kernel.populate_standard (Kernel.Cluster.shard c 1);
  let p0 =
    Kernel.Cluster.boot_shard c 0 ~name:"test" (traffic "w0" 8)
  in
  let p1 =
    Kernel.Cluster.boot_shard c 1 ~name:"test" (traffic "w1" 14)
  in
  Kernel.Cluster.run c;
  Tharness.check_exit "shard 0 init" 0 p0.Kernel.Proc.exit_status;
  Tharness.check_exit "shard 1 init" 0 p1.Kernel.Proc.exit_status;
  let check_shard what solo_obs i =
    let sc, st, so = solo_obs in
    let cc, ct, co = observe (Kernel.Cluster.shard c i) in
    Alcotest.(check int) (what ^ ": virtual clock") sc cc;
    Alcotest.(check int) (what ^ ": trap count") st ct;
    Alcotest.(check string) (what ^ ": console") so co
  in
  check_shard "shard 0 = solo 0" s0 0;
  check_shard "shard 1 = solo 1" s1 1

(* --- cross-shard signals: deterministic merge, reproducible runs -------- *)

let ring_run () =
  let n = 3 in
  let c = Kernel.Cluster.create ~shards:n () in
  for i = 0 to n - 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let woke = Array.make n false in
  let procs =
    List.init n (fun i ->
      Kernel.Cluster.boot_shard c i ~name:"ring" (fun () ->
        ignore
          (Tharness.check_ok "signal"
             (Libc.Unistd.signal Signal.sigusr1
                (Value.H_fn (fun _ -> woke.(i) <- true))));
        (* skew the shard clocks so merge order is exercised *)
        for _ = 1 to 3 + i do
          ignore (Libc.Unistd.getpid ())
        done;
        Kernel.Cluster.send ~dst:((i + 1) mod n) ~pid:1
          ~signal:Signal.sigusr1;
        ignore (Libc.Unistd.sigsuspend 0);
        Libc.Stdio.printf "shard %d woke\n" i;
        0))
  in
  Kernel.Cluster.run c;
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Tharness.check_exit "ring init" 0 p.Kernel.Proc.exit_status)
    procs;
  Alcotest.(check bool)
    "every shard's handler fired" true
    (Array.for_all Fun.id woke);
  List.init n (fun i -> observe (Kernel.Cluster.shard c i))

let test_cluster_reproducible () =
  let r1 = ring_run () in
  let r2 = ring_run () in
  List.iteri
    (fun i ((c1, t1, o1), (c2, t2, o2)) ->
      let what fmt = Printf.sprintf "shard %d: %s" i fmt in
      Alcotest.(check int) (what "virtual clock") c1 c2;
      Alcotest.(check int) (what "trap count") t1 t2;
      Alcotest.(check string) (what "console") o1 o2)
    (List.combine r1 r2)

(* --- the installed counter sets alias the current shard's ----------------- *)

let test_installed_sets () =
  let k = Tharness.fresh_kernel () in
  Tharness.check_exit "session" 0 (Tharness.boot_k k (traffic "shim" 5));
  (* k is the current shard, so the ambient installed sets are its own *)
  let codec_amb = Envelope.Stats.(snapshot_of (installed ())) in
  Alcotest.(check int)
    "installed codec set is the current shard's"
    (Kernel.codec_stats k).Envelope.Stats.traps
    codec_amb.Envelope.Stats.traps;
  let pool_amb = Envelope.Stats.(pool_snapshot_of (installed ())) in
  Alcotest.(check bool) "the session recycled records" true
    (pool_amb.Envelope.Stats.hits > 0);
  Alcotest.(check bool)
    "installed set carries the current shard's record-pool counters" true
    (Kernel.env_pool_stats k = pool_amb);
  (* the counters ride the obs engine but are not obs state: an obs
     reset between measurement phases must leave them alone *)
  Obs.reset ();
  Alcotest.(check bool)
    "Obs.reset leaves the codec counters" true
    (Kernel.codec_stats k = codec_amb);
  Alcotest.(check bool)
    "Obs.reset leaves the record-pool counters" true
    (Kernel.env_pool_stats k = pool_amb);
  (* a kernel created while k's engine is installed inherits its obs
     configuration, never its counts *)
  let fresh = Kernel.with_shard k (fun () -> Kernel.create ()) in
  Alcotest.(check bool)
    "a kernel created under another shard starts at zero codec counters"
    true
    (Kernel.codec_stats fresh
     = Envelope.Stats.diff codec_amb codec_amb);
  Alcotest.(check bool)
    "... and at zero record-pool counters" true
    (Kernel.env_pool_stats fresh
     = Envelope.Stats.pool_diff pool_amb pool_amb);
  Envelope.Stats.(reset_of (installed ()));
  Alcotest.(check int)
    "reset_of (installed ()) zeroes the current shard" 0
    (Kernel.codec_stats k).Envelope.Stats.traps;
  Alcotest.(check int)
    "... and its record-pool counters" 0
    (Kernel.env_pool_stats k).Envelope.Stats.hits

(* --- an exception leaves the previous shard entered ---------------------- *)

exception Boom

let test_with_shard_exception_restores () =
  let a = Tharness.fresh_kernel () in
  let b = Tharness.fresh_kernel () in
  let status =
    Tharness.boot_k b (fun () ->
      ignore (Libc.Unistd.getpid ());
      let me = Kernel.Uspace.self () in
      (match Kernel.with_shard a (fun () -> raise Boom) with
       | () -> Alcotest.fail "with_shard swallowed the exception"
       | exception Boom -> ());
      Alcotest.(check bool)
        "b is current again" true (Kernel.current_exn () == b);
      Alcotest.(check bool)
        "b's engine is installed again" true
        (Obs.installed () == Kernel.obs_engine b);
      let codec = Envelope.Stats.(snapshot_of (installed ())) in
      Alcotest.(check bool)
        "b's counter set is installed again" true
        (codec = Kernel.codec_stats b
         && codec.Envelope.Stats.traps > 0
         && (Kernel.codec_stats a).Envelope.Stats.traps = 0);
      Alcotest.(check bool)
        "b's running process is running again" true
        (Kernel.Uspace.self () == me);
      0)
  in
  Tharness.check_exit "b session" 0 status

(* A kernel exception (here: the in-kernel trace hook raising) escapes
   [Cluster.run] from inside a shard's step; the shard that was current
   before the run must be current afterwards, with no cluster left
   reachable through it. *)
let test_cluster_run_exception_restores () =
  let k0 = Tharness.fresh_kernel () in
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    let s = Kernel.Cluster.shard c i in
    Kernel.populate_standard s;
    ignore
      (Kernel.Cluster.boot_shard c i ~name:"boom" (traffic (Printf.sprintf "x%d" i) 3))
  done;
  Kernel.set_trace_hook (Kernel.Cluster.shard c 1)
    (Some (fun _ _ _ -> raise Boom));
  Kernel.enter k0;
  (match Kernel.Cluster.run c with
   | () -> Alcotest.fail "the kernel exception did not escape Cluster.run"
   | exception Boom -> ());
  Alcotest.(check bool)
    "the pre-run shard is current" true (Kernel.current_exn () == k0);
  Alcotest.(check bool)
    "the pre-run shard's engine is installed" true
    (Obs.installed () == Kernel.obs_engine k0);
  Alcotest.(check bool)
    "the pre-run shard's counter set is installed" true
    (Envelope.Stats.(snapshot_of (installed ())) = Kernel.codec_stats k0);
  Alcotest.(check bool)
    "Cluster.send raises after the run" true
    (match Kernel.Cluster.send ~dst:0 ~pid:1 ~signal:Signal.sigusr1 with
     | () -> false
     | exception Invalid_argument _ -> true)

(* --- cluster-wide metrics: exact counters sum, histograms merge ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let observed_cluster () =
  let c = Kernel.Cluster.create ~shards:2 () in
  for i = 0 to 1 do
    Kernel.populate_standard (Kernel.Cluster.shard c i)
  done;
  let procs =
    List.init 2 (fun i ->
      Kernel.Cluster.boot_shard c i ~name:"metrics" (fun () ->
        Obs.enable ();
        let rc = traffic (Printf.sprintf "m%d" i) (5 + (7 * i)) () in
        Obs.disable ();
        rc))
  in
  Kernel.Cluster.run c;
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Tharness.check_exit "metrics init" 0 p.Kernel.Proc.exit_status)
    procs;
  c

let test_cluster_metrics_merge () =
  let c = observed_cluster () in
  let per_shard =
    List.init 2 (fun i -> Kernel.metrics (Kernel.Cluster.shard c i))
  in
  let agg = Kernel.Cluster.metrics c in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 per_shard in
  Alcotest.(check int)
    "spans sum across shards" (sum (fun m -> m.Obs.m_spans)) agg.Obs.m_spans;
  Alcotest.(check bool) "cluster saw spans" true (agg.Obs.m_spans > 0);
  (* per-syscall: calls, errors, and histogram populations all sum *)
  let calls_of sysno m =
    match List.find_opt (fun s -> s.Obs.sm_sysno = sysno) m.Obs.m_syscalls with
    | Some s -> (s.Obs.sm_calls, Obs.Hist.count s.Obs.sm_hist)
    | None -> (0, 0)
  in
  List.iter
    (fun s ->
      let want =
        List.fold_left
          (fun (a, b) m ->
            let x, y = calls_of s.Obs.sm_sysno m in
            (a + x, b + y))
          (0, 0) per_shard
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "sysno %d calls+hist sum" s.Obs.sm_sysno)
        want
        (s.Obs.sm_calls, Obs.Hist.count s.Obs.sm_hist))
    agg.Obs.m_syscalls;
  (* the merge reads, never mutates, its inputs *)
  let again = List.init 2 (fun i -> Kernel.metrics (Kernel.Cluster.shard c i)) in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "shard snapshot undisturbed" a.Obs.m_spans
        b.Obs.m_spans)
    per_shard again;
  (* the JSON document sums codec counters and records the fan-in *)
  let json = Obs.Json.to_string (Kernel.Cluster.metrics_json c) in
  let doc =
    match Obs.Json.of_string json with
    | Ok d -> d
    | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  in
  let int_at path =
    let rec go doc = function
      | [] -> Obs.Json.to_int doc
      | k :: rest -> Option.bind (Obs.Json.member k doc) (fun d -> go d rest)
    in
    match go doc path with
    | Some n -> n
    | None -> Alcotest.failf "missing field %s" (String.concat "." path)
  in
  Alcotest.(check int) "shards field" 2 (int_at [ "shards" ]);
  let codec_traps = int_at [ "codec"; "traps" ] in
  let want_traps =
    List.fold_left
      (fun acc i ->
        acc
        + (Kernel.codec_stats (Kernel.Cluster.shard c i)).Envelope.Stats.traps)
      0 [ 0; 1 ]
  in
  Alcotest.(check int) "codec traps sum across shards" want_traps codec_traps

let test_cluster_chrome_lanes () =
  let c = observed_cluster () in
  let shards = Kernel.Cluster.drain_obs c in
  Alcotest.(check int) "one stream per shard" 2 (List.length shards);
  List.iter
    (fun (_, records) ->
      Alcotest.(check bool) "each shard drained records" true (records <> []))
    shards;
  let trace = Obs.Chrome.to_string_sharded ~name:Sysno.name shards in
  Alcotest.(check bool)
    "shard 0 lane labelled" true
    (contains trace "s0 pid 1");
  Alcotest.(check bool)
    "shard 1 lane labelled" true
    (contains trace "s1 pid 1");
  (* pids from different shards land in disjoint ranges *)
  (match Obs.Json.of_string trace with
   | Ok (Obs.Json.Arr events) ->
     let pids =
       List.filter_map
         (fun e -> Option.bind (Obs.Json.member "pid" e) Obs.Json.to_int)
         events
     in
     Alcotest.(check bool)
       "low-range (shard 0) pids present" true
       (List.exists (fun p -> p < Obs.Chrome.shard_stride) pids);
     Alcotest.(check bool)
       "high-range (shard 1) pids present" true
       (List.exists (fun p -> p >= Obs.Chrome.shard_stride) pids)
   | _ -> Alcotest.fail "sharded trace is not a JSON array")

(* --- select timer hygiene ------------------------------------------------ *)

(* Every way out of a timed select must drop its armed deadline: the
   timer list is shard state the test body can inspect directly (the
   simulation shares the host heap), so park a child in select, wake it
   each possible way, and look while the child is still alive — a
   leaked [T_select] would still be armed then. *)
let test_select_timer_hygiene () =
  let k = Tharness.fresh_kernel () in
  let select_timers () =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with Kernel.Kstate.T_select _ -> true | _ -> false)
         k.Kernel.Kstate.timers)
  in
  let u = Tharness.check_ok in
  let status =
    Tharness.boot_k k (fun () ->
      let r, w = u "pipe" (Libc.Unistd.pipe ()) in
      (* a pure poll never arms a deadline at all *)
      ignore (u "poll" (Libc.Unistd.select ~read:[ r ] ~timeout_us:0 ()));
      if select_timers () <> 0 then 1
      else begin
        let ar, aw = u "pipe2" (Libc.Unistd.pipe ()) in
        let spawn sel =
          u "fork"
            (Libc.Unistd.fork ~child:(fun () ->
               sel ();
               ignore (Libc.Unistd.write aw "k");
               (* stay alive: a leaked deadline would still be armed
                  when the driver looks *)
               ignore (Libc.Unistd.sleep_us 30_000);
               0))
        in
        let awake_leaks pid =
          let b = Bytes.create 1 in
          ignore (u "ack" (Libc.Unistd.read ar b 1));
          let leaked = select_timers () in
          ignore (u "reap" (Libc.Unistd.waitpid pid 0));
          leaked
        in
        (* data arrives before the deadline *)
        let pid =
          spawn (fun () ->
            ignore (Libc.Unistd.select ~read:[ r ] ~timeout_us:1_000_000 ()))
        in
        ignore (Libc.Unistd.sleep_us 2_000);
        ignore (u "wake" (Libc.Unistd.write w "x"));
        if awake_leaks pid <> 0 then 2
        else begin
          let b = Bytes.create 1 in
          ignore (u "drain" (Libc.Unistd.read r b 1));
          (* the deadline itself expires *)
          let pid =
            spawn (fun () ->
              ignore (Libc.Unistd.select ~read:[ r ] ~timeout_us:3_000 ()))
          in
          if awake_leaks pid <> 0 then 3
          else begin
            (* a signal ends the wait: select is not restartable, the
               EINTR surfaces, and the deadline dies with the wait *)
            let pid =
              spawn (fun () ->
                ignore
                  (Libc.Unistd.signal Signal.sigusr1
                     (Value.H_fn (fun _ -> ())));
                match
                  Libc.Unistd.select ~read:[ r ] ~timeout_us:1_000_000 ()
                with
                | Error Errno.EINTR -> ()
                | Ok _ | Error _ -> Libc.Unistd._exit 9)
            in
            ignore (Libc.Unistd.sleep_us 2_000);
            u "kill" (Libc.Unistd.kill pid Signal.sigusr1);
            if awake_leaks pid <> 0 then 4
            else begin
              ignore (Libc.Unistd.close r);
              ignore (Libc.Unistd.close w);
              ignore (Libc.Unistd.close ar);
              ignore (Libc.Unistd.close aw);
              0
            end
          end
        end
      end)
  in
  Tharness.check_exit "no leaked select deadlines" 0 status

let () =
  Alcotest.run "shard"
    [ ( "isolation",
        [ Alcotest.test_case "sequential kernels share nothing" `Quick
            test_sequential_isolation;
          Alcotest.test_case "with_shard multiplexes two kernels" `Quick
            test_with_shard_coexist;
          Alcotest.test_case "installed counter sets read the current shard"
            `Quick test_installed_sets;
          Alcotest.test_case "with_shard restores the shard on an exception"
            `Quick test_with_shard_exception_restores;
          Alcotest.test_case "Cluster.run restores the shard on an exception"
            `Quick test_cluster_run_exception_restores ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same bytes at 1 shard" `Quick
            test_determinism_one_shard;
          Alcotest.test_case "2 shards without sends = two solo runs" `Quick
            test_cluster_matches_solo;
          Alcotest.test_case "signal ring reproduces byte-identically" `Quick
            test_cluster_reproducible ] );
      ( "cluster metrics",
        [ Alcotest.test_case "counters sum, histograms merge" `Quick
            test_cluster_metrics_merge;
          Alcotest.test_case "chrome export gets per-shard lanes" `Quick
            test_cluster_chrome_lanes ] );
      ( "timer-hygiene",
        [ Alcotest.test_case "select deadlines never leak" `Quick
            test_select_timer_hygiene ] ) ]
