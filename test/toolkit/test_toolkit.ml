(* Toolkit-layer tests: installation and stacking, layer routing,
   fork/execve survival, descriptor and pathname object plumbing. *)

open Abi
open Tharness

(* --- helper agents ------------------------------------------------------ *)

(* counts interceptions at the numeric layer, tagging them with a name
   so stacking order is observable *)
class tag_agent (name : string) (log : string list ref) =
  object (self)
    inherit Toolkit.numeric_syscall as super
    method! agent_name = name
    method! init _ = self#register_interest Sysno.sys_getpid
    method! syscall env =
      if Envelope.number env = Sysno.sys_getpid then log := name :: !log;
      super#syscall env
  end

(* symbolic agent lying about the pid *)
class fake_pid_agent (pid : int) =
  object (self)
    inherit Toolkit.symbolic_syscall
    method! init _ = self#register_interest Sysno.sys_getpid
    method! sys_getpid () = Value.ret pid
  end

(* pathname_set agent remapping a prefix, a minimal filesystem view *)
class remap_prefix_agent ~(from_prefix : string) ~(to_prefix : string) =
  object (self)
    inherit Toolkit.pathname_set
    method! init _ = self#register_interest_all
    method! getpn path =
      let fl = String.length from_prefix in
      let mapped =
        if
          String.length path >= fl
          && String.sub path 0 fl = from_prefix
        then to_prefix ^ String.sub path fl (String.length path - fl)
        else path
      in
      Ok (self#make_pathname mapped)
  end

(* descriptor_set agent upcasing everything read through it *)
class upcase_object dl =
  object
    inherit Toolkit.open_object dl as super
    method! read ~fd buf cnt =
      match super#read ~fd buf cnt with
      | Ok r as res ->
        for i = 0 to r.Value.r0 - 1 do
          Bytes.set buf i (Char.uppercase_ascii (Bytes.get buf i))
        done;
        res
      | Error _ as res -> res
  end

class upcase_agent =
  object (self)
    inherit Toolkit.Sets.descriptor_set
    method! init _ = self#register_interest_all
    method! make_open_object ~fd:_ ~path:_ ~flags:_ =
      (new upcase_object self#downlink :> Toolkit.Objects.open_object)
  end

(* --- tests ---------------------------------------------------------------- *)

let test_null_agent_transparent () =
  let run body =
    let k, status = body () in
    exit_code status, Kernel.console_output k
  in
  let program () =
    ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/t" "abc"));
    let content = check_ok "read" (Libc.Stdio.read_file "/tmp/t") in
    Libc.Stdio.printf "content=%s pid=%d\n" content (Libc.Unistd.getpid ());
    let pid =
      check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 5))
    in
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    Flags.Wait.wexitstatus st
  in
  let bare = run (fun () -> boot program) in
  let under =
    run (fun () -> boot_under_agent (Agents.Time_symbolic.create ()) program)
  in
  Alcotest.(check (pair int string)) "identical behaviour" bare under

let test_stacking_order () =
  let log = ref [] in
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install (new tag_agent "bottom" log) ~argv:[||];
      Toolkit.Loader.install (new tag_agent "top" log) ~argv:[||];
      ignore (Libc.Unistd.getpid ());
      0)
  in
  check_exit "exit" 0 status;
  (* most recently installed agent sees the call first, then passes it
     down to the earlier one *)
  Alcotest.(check (list string)) "order" [ "bottom"; "top" ] !log

let test_decode_once_under_stack () =
  (* the envelope invariant, measured: under a 4-deep stack of null
     symbolic agents, each intercepted trap decodes exactly once (at
     the first symbolic layer), encodes exactly once (at the app
     boundary), and crosses all four layers *)
  let iters = 50 in
  let depth = 4 in
  let stats () = Kernel.codec_stats (Kernel.current_exn ()) in
  let before = ref None in
  let after = ref !before in
  let _, status =
    boot (fun () ->
      for _ = 1 to depth do
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
      done;
      before := Some (stats ());
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      after := Some (stats ());
      0)
  in
  check_exit "exit" 0 status;
  let d =
    Envelope.Stats.diff (Option.get !before) (Option.get !after)
  in
  Alcotest.(check int) "traps" iters d.Envelope.Stats.traps;
  Alcotest.(check int) "all chained" iters d.Envelope.Stats.chained;
  Alcotest.(check int) "decode-count = 1 per trap" iters
    d.Envelope.Stats.decodes;
  Alcotest.(check int) "encode-count = 1 per trap" iters
    d.Envelope.Stats.encodes;
  Alcotest.(check int) "every layer crossed" (depth * iters)
    d.Envelope.Stats.crossings

let test_uninstall_restores () =
  let log = ref [] in
  let _, status =
    boot (fun () ->
      let a = new tag_agent "a" log in
      Toolkit.Loader.run_under a (fun () ->
        ignore (Libc.Unistd.getpid ()));
      ignore (Libc.Unistd.getpid ());  (* not intercepted any more *)
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "one interception" [ "a" ] !log

let test_symbolic_override () =
  let _, status =
    boot_under_agent (new fake_pid_agent 4242) (fun () ->
      Libc.Unistd.getpid ())
  in
  check_exit "fake pid" (4242 land 0xff) status

let test_agent_survives_execve () =
  let k = fresh_kernel () in
  Kernel.register_image k "probe" (fun ~argv:_ ~envp:_ () ->
    Libc.Unistd.getpid ());
  Kernel.install_image k ~path:"/bin/probe" ~image:"probe";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      Toolkit.Loader.install (new fake_pid_agent 99) ~argv:[||];
      match Libc.Unistd.execv "/bin/probe" [| "probe" |] with
      | Error _ -> 1
      | Ok _ -> assert false)
  in
  (* the probe ran in the new image yet still saw the agent's pid *)
  check_exit "execve kept agent" 99 status

let test_init_child_runs_in_fork () =
  let children = ref 0 in
  let agent =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest_all
      method! init_child = incr children
    end
  in
  let _, status =
    boot_under_agent agent (fun () ->
      let pid = check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 0)) in
      let _ = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check int) "init_child once" 1 !children

let test_unknown_syscall_enosys () =
  (* numbers with no system call behind them: an unassigned slot, one
     below and one past the emulation table, and a foreign-ABI-sized
     number — at depth 0 and under full-interest stacks *)
  let numbers =
    [ 179; -1; Sysno.max_sysno + 1; 0x4000_0000 + Sysno.sys_getpid ]
  in
  let enosys = function Error Errno.ENOSYS -> 0 | Error _ | Ok _ -> 1 in
  let probe () =
    (* through the trap, and down an empty downlink *)
    let dl = Toolkit.Downlink.create () in
    List.fold_left
      (fun bad num ->
        let w = { Value.num; args = [||] } in
        bad
        + enosys (Kernel.Uspace.trap_wire w)
        + enosys (Toolkit.Downlink.down dl (Envelope.of_wire w)))
      0 numbers
  in
  List.iter
    (fun (what, run) ->
      let _, status = run probe in
      check_exit ("ENOSYS passes through, " ^ what) 0 status)
    [ ("depth 0", boot);
      ("symbolic agent",
       fun body -> boot_under_agent (Agents.Time_symbolic.create ()) body);
      ("trace", fun body -> boot_under_agent (Agents.Trace.create ()) body) ]

let test_descriptor_factory_transform () =
  let k, status =
    boot_under_agent (new upcase_agent) (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/lc" "hello"));
      let s = check_ok "read" (Libc.Stdio.read_file "/tmp/lc") in
      Libc.Stdio.print s;
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "reads upcased" "HELLO" (Kernel.console_output k)

let test_descriptor_tracking_dup () =
  (* a dup'd descriptor must route through the same open object *)
  let k, status =
    boot_under_agent (new upcase_agent) (fun () ->
      ignore (check_ok "write" (Libc.Stdio.write_file "/tmp/d" "xyz"));
      let fd =
        check_ok "open" (Libc.Unistd.open_ "/tmp/d" Flags.Open.o_rdonly 0)
      in
      let fd2 = check_ok "dup" (Libc.Unistd.dup fd) in
      ignore (check_ok "close" (Libc.Unistd.close fd));
      let buf = Bytes.create 8 in
      let n = check_ok "read" (Libc.Unistd.read fd2 buf 8) in
      Libc.Stdio.print (Bytes.sub_string buf 0 n);
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check string) "dup routed" "XYZ" (Kernel.console_output k)

let test_pathname_remap () =
  let k, status =
    boot_under_agent
      (new remap_prefix_agent ~from_prefix:"/virtual" ~to_prefix:"/real")
      (fun () ->
        ignore (check_ok "mkdir" (Libc.Unistd.mkdir "/real" 0o755));
        ignore
          (check_ok "write" (Libc.Stdio.write_file "/virtual/f" "mapped"));
        let st = check_ok "stat" (Libc.Unistd.stat "/virtual/f") in
        if st.Stat.st_size <> 6 then 1
        else begin
          Libc.Stdio.print
            (check_ok "read" (Libc.Stdio.read_file "/virtual/f"));
          0
        end)
  in
  check_exit "exit" 0 status;
  (* the file physically lives under /real *)
  Alcotest.(check string) "stored at /real/f" "mapped"
    (read_file_exn k "/real/f");
  Alcotest.(check string) "read back via /virtual" "mapped"
    (Kernel.console_output k)

let test_directory_object_iteration () =
  (* the toolkit directory object must rebuild getdirentries through
     next_direntry without changing what readdir sees *)
  let dir_agent =
    object (self)
      inherit Toolkit.Sets.descriptor_set
      method! init _ = self#register_interest_all
      method! make_open_object ~fd:_ ~path:_ ~flags:_ =
        (new Toolkit.directory self#downlink :> Toolkit.Objects.open_object)
    end
  in
  let listing = ref [] in
  let _, status =
    boot_under_agent dir_agent (fun () ->
      ignore (check_ok "mkdir" (Libc.Unistd.mkdir "/tmp/z" 0o755));
      List.iter
        (fun n ->
          ignore
            (check_ok n (Libc.Stdio.write_file ("/tmp/z/" ^ n) n)))
        [ "one"; "two"; "three" ];
      listing := check_ok "names" (Libc.Dirstream.names "/tmp/z");
      0)
  in
  check_exit "exit" 0 status;
  Alcotest.(check (list string)) "iterated" [ "one"; "three"; "two" ]
    !listing

let test_interests_registration () =
  let a = new Toolkit.numeric_syscall in
  a#register_interest Sysno.sys_read;
  a#register_interest Sysno.sys_read;
  a#register_interest_range Sysno.sys_open Sysno.sys_close;
  Alcotest.(check (list int)) "dedup + range"
    [ Sysno.sys_read; Sysno.sys_open; Sysno.sys_close ]
    a#interests

let test_buggy_agent_contained () =
  (* an agent whose handler raises must kill only the process it is
     interposed on, not the machine *)
  let buggy =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest Sysno.sys_getuid
      method! sys_getuid () = failwith "agent bug"
    end
  in
  let _, status =
    boot (fun () ->
      let pid =
        check_ok "fork"
          (Libc.Unistd.fork ~child:(fun () ->
             Toolkit.Loader.install buggy ~argv:[||];
             ignore (Libc.Unistd.getuid ());
             0))
      in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      (* the parent survives and can keep making calls *)
      ignore (Libc.Unistd.getpid ());
      if Flags.Wait.wifsignaled st
         && Flags.Wait.wtermsig st = Signal.sigabrt
      then 0
      else 1)
  in
  check_exit "buggy agent kills only its client" 0 status

let test_agent_error_return_propagates () =
  (* an agent can veto a call with an errno of its choice *)
  let deny =
    object (self)
      inherit Toolkit.symbolic_syscall
      method! init _ = self#register_interest Sysno.sys_sync
      method! sys_sync () = Error Errno.EROFS
    end
  in
  let _, status =
    boot_under_agent deny (fun () ->
      match Kernel.Uspace.syscall Call.Sync with
      | Error Errno.EROFS -> 0
      | Error _ | Ok _ -> 1)
  in
  check_exit "agent-made errno" 0 status

let test_exec_under () =
  (* the paper's loader entry point: install the agent, then exec the
     unmodified target under it *)
  let k = fresh_kernel () in
  Kernel.register_image k "target" (fun ~argv ~envp:_ () ->
    Libc.Stdio.printf "pid=%d arg=%s\n" (Libc.Unistd.getpid ())
      (if Array.length argv > 1 then argv.(1) else "-");
    0);
  Kernel.install_image k ~path:"/bin/target" ~image:"target";
  let status =
    Kernel.boot k ~name:"loader" (fun () ->
      Toolkit.Loader.exec_under
        (new fake_pid_agent 321)
        ~path:"/bin/target"
        ~argv:[| "target"; "via-loader" |]
        ())
  in
  ignore (exit_code status);
  Alcotest.(check string) "agent visible in the exec'd image"
    "pid=321 arg=via-loader\n" (Kernel.console_output k)

let test_exec_under_missing_program () =
  let _, status =
    boot (fun () ->
      Toolkit.Loader.exec_under
        (Agents.Time_symbolic.create ())
        ~path:"/bin/nonexistent"
        ~argv:[| "x" |]
        ())
  in
  check_exit "loader reports 127" 127 status

let test_loader_adds_minimum () =
  let a = new Toolkit.numeric_syscall in
  (* no explicit interests: the loader must still see fork/execve/exit *)
  let _, status =
    boot (fun () ->
      Toolkit.Loader.install a ~argv:[||];
      let pid = check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 3)) in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      Flags.Wait.wexitstatus st)
  in
  check_exit "fork under bare numeric agent" 3 status

(* --- emulation-chain fast path ---------------------------------------------- *)

let qtest = QCheck_alcotest.to_alcotest

(* Trap-counter window around [iters] getpid calls inside a booted
   session, with [install] run first to set up whatever agent stack the
   test wants. *)
let trap_window ~install iters =
  let stats () = Kernel.codec_stats (Kernel.current_exn ()) in
  let d = ref None in
  let _, status =
    boot (fun () ->
      install ();
      let before = stats () in
      for _ = 1 to iters do
        ignore (Libc.Unistd.getpid ())
      done;
      d := Some (Envelope.Stats.diff before (stats ()));
      0)
  in
  check_exit "exit" 0 status;
  Option.get !d

let test_fast_path_uninterested () =
  (* an agent interested only in open: getpid traps find an empty chain
     slot and go straight to the kernel *)
  let open_only =
    object (self)
      inherit Toolkit.numeric_syscall
      method! init _ = self#register_interest Sysno.sys_open
    end
  in
  let iters = 25 in
  let d =
    trap_window iters ~install:(fun () ->
        Toolkit.Loader.install open_only ~argv:[||])
  in
  Alcotest.(check int) "one trap per getpid" iters d.Envelope.Stats.traps;
  Alcotest.(check int) "every trap took the fast path" iters
    d.Envelope.Stats.fast_path;
  Alcotest.(check int) "no handler run" 0 d.Envelope.Stats.chained

let test_fast_path_interested () =
  (* full interest: every trap runs the installed chain handler *)
  let iters = 25 in
  let d =
    trap_window iters ~install:(fun () ->
        Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||])
  in
  Alcotest.(check int) "every trap chained" iters d.Envelope.Stats.chained;
  Alcotest.(check int) "fast path never taken" 0 d.Envelope.Stats.fast_path

(* Property: whatever sequence of emulation updates and downlink
   captures runs, [task_get_emulation n] and
   [Downlink.captured_handler dl n] return exactly the closure last
   installed (physically) for [n], or [None] — in this process and in
   a forked child's copy.  Ops are (kind, numbers) pairs; numbers run a
   little past both ends of the table so the out-of-range-is-ignored
   paths get exercised too. *)
let lo_sysno = -2
let hi_sysno = Sysno.max_sysno + 4

let chain_after_ops ops =
  (* a fresh closure per set, so physical equality names the op *)
  let handler i env =
    if i < 0 then Error Errno.ENOSYS else Kernel.Uspace.htg_trap env
  in
  let in_table n = n >= 0 && n <= Sysno.max_sysno in
  let installed = Array.make (hi_sysno - lo_sysno + 1) None in
  let captured = Array.make (hi_sysno - lo_sysno + 1) None in
  let same a b =
    match a, b with
    | None, None -> true
    | Some f, Some g -> f == g
    | _ -> false
  in
  let ok = ref true in
  let _, status =
    boot (fun () ->
      let dl = Toolkit.Downlink.create () in
      let agree () =
        let good = ref true in
        for n = lo_sysno to hi_sysno do
          let i = n - lo_sysno in
          if not (same (Kernel.Uspace.task_get_emulation n) installed.(i))
             || not (same (Toolkit.Downlink.captured_handler dl n)
                       captured.(i))
          then good := false
        done;
        !good
      in
      List.iteri
        (fun op (kind, numbers) ->
          let numbers = List.map (fun n -> n + lo_sysno) numbers in
          let slots h =
            List.iter
              (fun n -> if in_table n then installed.(n - lo_sysno) <- h)
              numbers
          in
          match kind mod 3 with
          | 0 ->
            let h = Some (handler op) in
            Kernel.Uspace.task_set_emulation ~numbers h;
            slots h
          | 1 ->
            Kernel.Uspace.task_set_emulation ~numbers None;
            slots None
          | _ ->
            Toolkit.Downlink.capture dl ~numbers;
            List.iter
              (fun n ->
                if in_table n then
                  captured.(n - lo_sysno) <- installed.(n - lo_sysno))
              numbers)
        ops;
      ok := agree ();
      let pid =
        check_ok "fork"
          (Libc.Unistd.fork ~child:(fun () -> if agree () then 0 else 1))
      in
      let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
      if Flags.Wait.wexitstatus st <> 0 then ok := false;
      0)
  in
  exit_code status = 0 && !ok

let test_chain_last_installed =
  QCheck.Test.make ~name:"chain returns last installed (incl. fork)"
    ~count:30
    QCheck.(
      small_list
        (pair small_nat (small_list (int_bound (hi_sysno - lo_sysno)))))
    chain_after_ops

let () =
  Alcotest.run "toolkit"
    [ "loader",
      [ Alcotest.test_case "null agent transparent" `Quick
          test_null_agent_transparent;
        Alcotest.test_case "stacking order" `Quick test_stacking_order;
        Alcotest.test_case "decode once under stack" `Quick
          test_decode_once_under_stack;
        Alcotest.test_case "uninstall restores" `Quick
          test_uninstall_restores;
        Alcotest.test_case "minimum interests" `Quick
          test_loader_adds_minimum;
        Alcotest.test_case "exec_under" `Quick test_exec_under;
        Alcotest.test_case "exec_under missing" `Quick
          test_exec_under_missing_program;
        Alcotest.test_case "interest registration" `Quick
          test_interests_registration ];
      "symbolic",
      [ Alcotest.test_case "override one call" `Quick test_symbolic_override;
        Alcotest.test_case "survives execve" `Quick
          test_agent_survives_execve;
        Alcotest.test_case "init_child on fork" `Quick
          test_init_child_runs_in_fork;
        Alcotest.test_case "unknown syscall" `Quick
          test_unknown_syscall_enosys;
        Alcotest.test_case "buggy agent contained" `Quick
          test_buggy_agent_contained;
        Alcotest.test_case "agent errno" `Quick
          test_agent_error_return_propagates ];
      "objects",
      [ Alcotest.test_case "open-object factory" `Quick
          test_descriptor_factory_transform;
        Alcotest.test_case "dup shares object" `Quick
          test_descriptor_tracking_dup;
        Alcotest.test_case "pathname remap" `Quick test_pathname_remap;
        Alcotest.test_case "directory iteration" `Quick
          test_directory_object_iteration ];
      "fastpath",
      [ Alcotest.test_case "uninterested traps" `Quick
          test_fast_path_uninterested;
        Alcotest.test_case "interested traps" `Quick
          test_fast_path_interested;
        qtest test_chain_last_installed ] ]
