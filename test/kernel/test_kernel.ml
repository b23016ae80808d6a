(* Kernel-level tests: boot, file I/O, fork/wait, pipes, signals,
   execve, interception primitives. *)

open Abi

let errno = Alcotest.testable Errno.pp ( = )

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Errno.name e)

let boot_with body =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  let status = Kernel.boot k ~name:"test" body in
  k, status

let exit_code status =
  Alcotest.(check bool) "exited normally" true (Flags.Wait.wifexited status);
  Flags.Wait.wexitstatus status

(* --- boot ----------------------------------------------------------- *)

let test_boot_exit_code () =
  let _, status = boot_with (fun () -> 42) in
  Alcotest.(check int) "code" 42 (exit_code status)

let test_boot_stdio () =
  let k, status = boot_with (fun () ->
    Libc.Stdio.print "hello, world\n";
    0)
  in
  ignore (exit_code status);
  Alcotest.(check string) "console" "hello, world\n" (Kernel.console_output k)

let test_clock_advances () =
  let k, _ = boot_with (fun () ->
    ignore (Libc.Unistd.getpid ());
    0)
  in
  Alcotest.(check bool) "time passed" true (Kernel.elapsed_seconds k > 0.0)

(* --- file I/O -------------------------------------------------------- *)

let test_write_read_roundtrip () =
  let result = ref "" in
  let _, status = boot_with (fun () ->
    check_ok "write" (Libc.Stdio.write_file "/tmp/x" "payload");
    result := check_ok "read" (Libc.Stdio.read_file "/tmp/x");
    0)
  in
  ignore (exit_code status);
  Alcotest.(check string) "content" "payload" !result

let test_open_enoent () =
  let err = ref None in
  let _, _ = boot_with (fun () ->
    (match Libc.Unistd.open_ "/no/such/file" Flags.Open.o_rdonly 0 with
     | Error e -> err := Some e
     | Ok _ -> ());
    0)
  in
  Alcotest.(check (option errno)) "errno" (Some Errno.ENOENT) !err

let test_lseek_and_append () =
  let out = ref "" in
  let _, _ = boot_with (fun () ->
    check_ok "write" (Libc.Stdio.write_file "/tmp/f" "0123456789");
    let fd =
      check_ok "open" (Libc.Unistd.open_ "/tmp/f" Flags.Open.o_rdwr 0)
    in
    ignore (check_ok "seek" (Libc.Unistd.lseek fd 4 Flags.Seek.set));
    ignore (check_ok "write" (Libc.Unistd.write fd "XY"));
    ignore (Libc.Unistd.close fd);
    check_ok "append" (Libc.Stdio.append_file "/tmp/f" "Z");
    out := check_ok "read" (Libc.Stdio.read_file "/tmp/f");
    0)
  in
  Alcotest.(check string) "content" "0123XY6789Z" !out

let test_dup2_shares_offset () =
  let out = ref "" in
  let _, _ = boot_with (fun () ->
    let fd =
      check_ok "open"
        (Libc.Unistd.open_ "/tmp/d" Flags.Open.(o_wronly lor o_creat) 0o644)
    in
    let fd2 = check_ok "dup" (Libc.Unistd.dup fd) in
    ignore (check_ok "w1" (Libc.Unistd.write fd "AB"));
    ignore (check_ok "w2" (Libc.Unistd.write fd2 "CD"));
    ignore (Libc.Unistd.close fd);
    ignore (Libc.Unistd.close fd2);
    out := check_ok "read" (Libc.Stdio.read_file "/tmp/d");
    0)
  in
  Alcotest.(check string) "offset shared" "ABCD" !out

(* --- processes -------------------------------------------------------- *)

let test_fork_wait () =
  let _, status = boot_with (fun () ->
    let pid =
      check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 7))
    in
    let wpid, wstatus = check_ok "wait" (Libc.Unistd.wait ()) in
    Alcotest.(check int) "waited right child" pid wpid;
    Alcotest.(check bool) "child exited" true
      (Flags.Wait.wifexited wstatus);
    Flags.Wait.wexitstatus wstatus)
  in
  Alcotest.(check int) "propagated" 7 (exit_code status)

let test_fork_inherits_cwd_and_fds () =
  let _, status = boot_with (fun () ->
    check_ok "mkdir" (Libc.Unistd.mkdir "/tmp/sub" 0o755);
    check_ok "chdir" (Libc.Unistd.chdir "/tmp/sub");
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           let cwd = check_ok "getcwd" (Libc.Unistd.getcwd ()) in
           if cwd = "/tmp/sub" then 0 else 1))
    in
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    Flags.Wait.wexitstatus st)
  in
  Alcotest.(check int) "child saw cwd" 0 (exit_code status)

let test_wait_echild () =
  let err = ref None in
  let _, _ = boot_with (fun () ->
    (match Libc.Unistd.wait () with
     | Error e -> err := Some e
     | Ok _ -> ());
    0)
  in
  Alcotest.(check (option errno)) "ECHILD" (Some Errno.ECHILD) !err

let test_zombie_reaped_once () =
  let _, status = boot_with (fun () ->
    let _ = check_ok "fork" (Libc.Unistd.fork ~child:(fun () -> 0)) in
    let _ = check_ok "wait1" (Libc.Unistd.wait ()) in
    match Libc.Unistd.wait () with
    | Error Errno.ECHILD -> 0
    | Error _ | Ok _ -> 1)
  in
  Alcotest.(check int) "second wait fails" 0 (exit_code status)

(* --- pipes ------------------------------------------------------------- *)

let test_pipe_parent_child () =
  let _, status = boot_with (fun () ->
    let r, w = check_ok "pipe" (Libc.Unistd.pipe ()) in
    let _ =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.close r);
           ignore (Libc.Unistd.write_all w "through the pipe");
           ignore (Libc.Unistd.close w);
           0))
    in
    ignore (Libc.Unistd.close w);
    let data = check_ok "read_all" (Libc.Unistd.read_all r) in
    ignore (Libc.Unistd.close r);
    let _ = Libc.Unistd.wait () in
    if data = "through the pipe" then 0 else 1)
  in
  Alcotest.(check int) "pipe data" 0 (exit_code status)

let test_pipe_blocking_backpressure () =
  (* the writer must fill the 4096-byte buffer and block until the
     reader drains it *)
  let _, status = boot_with (fun () ->
    let r, w = check_ok "pipe" (Libc.Unistd.pipe ()) in
    let big = String.make 10_000 'x' in
    let _ =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.close r);
           ignore (Libc.Unistd.write_all w big);
           ignore (Libc.Unistd.close w);
           0))
    in
    ignore (Libc.Unistd.close w);
    let data = check_ok "read_all" (Libc.Unistd.read_all r) in
    let _ = Libc.Unistd.wait () in
    if data = big then 0 else 1)
  in
  Alcotest.(check int) "10k through 4k pipe" 0 (exit_code status)

let test_epipe_and_sigpipe () =
  let _, status = boot_with (fun () ->
    let r, w = check_ok "pipe" (Libc.Unistd.pipe ()) in
    ignore (Libc.Unistd.close r);
    ignore
      (Libc.Unistd.signal Signal.sigpipe Value.H_ignore |> check_ok "signal");
    match Libc.Unistd.write w "x" with
    | Error Errno.EPIPE -> 0
    | Error _ | Ok _ -> 1)
  in
  Alcotest.(check int) "EPIPE" 0 (exit_code status)

let test_sigpipe_kills_by_default () =
  let _, status = boot_with (fun () ->
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           let r, w = check_ok "pipe" (Libc.Unistd.pipe ()) in
           ignore (Libc.Unistd.close r);
           ignore (Libc.Unistd.write w "x");
           0))
    in
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigpipe
    then 0
    else 1)
  in
  Alcotest.(check int) "killed by SIGPIPE" 0 (exit_code status)

(* --- signals ------------------------------------------------------------ *)

let test_handler_runs () =
  let _, status = boot_with (fun () ->
    let hits = ref 0 in
    ignore
      (check_ok "signal"
         (Libc.Unistd.signal Signal.sigusr1
            (Value.H_fn (fun _ -> incr hits))));
    check_ok "kill" (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigusr1);
    (* delivery happens at the next trap boundary *)
    ignore (Libc.Unistd.getpid ());
    !hits)
  in
  Alcotest.(check int) "handler ran once" 1 (exit_code status)

let test_sigterm_default_kills () =
  let _, status = boot_with (fun () ->
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           (* loop until killed *)
           let rec spin () =
             ignore (Libc.Unistd.getpid ());
             spin ()
           in
           spin ()))
    in
    check_ok "kill" (Libc.Unistd.kill pid Signal.sigterm);
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigterm
    then 0
    else 1)
  in
  Alcotest.(check int) "terminated" 0 (exit_code status)

let test_sigmask_defers () =
  let _, status = boot_with (fun () ->
    let hits = ref 0 in
    ignore
      (check_ok "signal"
         (Libc.Unistd.signal Signal.sigusr1
            (Value.H_fn (fun _ -> incr hits))));
    ignore
      (check_ok "block"
         (Libc.Unistd.sigprocmask Flags.Sighow.sig_block
            (Signal.Mask.mask_bit Signal.sigusr1)));
    check_ok "kill" (Libc.Unistd.kill (Libc.Unistd.getpid ()) Signal.sigusr1);
    ignore (Libc.Unistd.getpid ());
    let before = !hits in
    ignore
      (check_ok "unblock"
         (Libc.Unistd.sigprocmask Flags.Sighow.sig_setmask 0));
    ignore (Libc.Unistd.getpid ());
    if before = 0 && !hits = 1 then 0 else 1)
  in
  Alcotest.(check int) "masked then delivered" 0 (exit_code status)

let test_alarm_interrupts_sleep () =
  let _, status = boot_with (fun () ->
    ignore
      (check_ok "signal"
         (Libc.Unistd.signal Signal.sigalrm (Value.H_fn (fun _ -> ()))));
    ignore (check_ok "alarm" (Libc.Unistd.alarm 1));
    match Libc.Unistd.sleep_us 10_000_000 with
    | Error Errno.EINTR -> 0
    | Error _ | Ok _ -> 1)
  in
  Alcotest.(check int) "EINTR" 0 (exit_code status)

let test_sleep_advances_clock () =
  let k, _ = boot_with (fun () ->
    ignore (Libc.Unistd.sleep_us 2_000_000);
    0)
  in
  Alcotest.(check bool) "slept 2s" true (Kernel.elapsed_seconds k >= 2.0)

let test_sigkill_unblockable () =
  let _, status = boot_with (fun () ->
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore
             (Libc.Unistd.sigprocmask Flags.Sighow.sig_block
                Signal.Mask.full);
           ignore (Libc.Unistd.sleep_us 60_000_000);
           0))
    in
    check_ok "kill" (Libc.Unistd.kill pid Signal.sigkill);
    let _, st = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigkill
    then 0
    else 1)
  in
  Alcotest.(check int) "SIGKILL" 0 (exit_code status)

(* --- execve -------------------------------------------------------------- *)

let register_test_child k =
  Kernel.register_image k "test-child" (fun ~argv ~envp:_ () ->
    Libc.Stdio.printf "child:%s\n"
      (if Array.length argv > 1 then argv.(1) else "?");
    11)

let test_execve () =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  register_test_child k;
  Kernel.install_image k ~path:"/bin/test-child" ~image:"test-child";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      let st =
        check_ok "run"
          (Libc.Spawn.run "/bin/test-child" [| "test-child"; "arg1" |])
      in
      Flags.Wait.wexitstatus st)
  in
  Alcotest.(check int) "child exit" 11 (exit_code status);
  Alcotest.(check string) "child output" "child:arg1\n"
    (Kernel.console_output k)

let test_execve_enoexec () =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  Kernel.write_file k ~path:"/bin/junk" ~perm:0o755 "not an image";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      match Libc.Unistd.execv "/bin/junk" [| "junk" |] with
      | Error Errno.ENOEXEC -> 0
      | Error _ | Ok _ -> 1)
  in
  Alcotest.(check int) "ENOEXEC" 0 (exit_code status)

let test_execve_clears_emulation () =
  (* a raw execve must clear the interception vector *)
  let k = Kernel.create () in
  Kernel.populate_standard k;
  let hit = ref 0 in
  Kernel.register_image k "emu-probe" (fun ~argv:_ ~envp:_ () ->
    ignore (Libc.Unistd.getpid ());
    0);
  Kernel.install_image k ~path:"/bin/emu-probe" ~image:"emu-probe";
  let status =
    Kernel.boot k ~name:"init" (fun () ->
      Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ]
        (Some (fun w ->
           incr hit;
           Kernel.Uspace.htg_trap w));
      ignore (Libc.Unistd.getpid ());  (* intercepted: hit = 1 *)
      match Libc.Unistd.execv "/bin/emu-probe" [| "emu-probe" |] with
      | Error _ -> 1
      | Ok _ -> assert false)
  in
  Alcotest.(check int) "probe exit" 0 (exit_code status);
  Alcotest.(check int) "only pre-exec call intercepted" 1 !hit

(* --- interception primitives ------------------------------------------------ *)

let test_interception_and_htg () =
  let _, status = boot_with (fun () ->
    let seen = ref [] in
    Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ]
      (Some (fun w ->
         seen := Envelope.number w :: !seen;
         Kernel.Uspace.htg_trap w));
    let pid = Libc.Unistd.getpid () in
    let direct =
      match Kernel.Uspace.htg_syscall Call.Getpid with
      | Ok { Value.r0; _ } -> r0
      | Error _ -> -1
    in
    Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ] None;
    let again = Libc.Unistd.getpid () in
    if pid = direct && pid = again && !seen = [ Sysno.sys_getpid ] then 0
    else 1)
  in
  Alcotest.(check int) "intercept once, htg bypasses" 0 (exit_code status)

let test_emulation_inherited_by_fork () =
  let _, status = boot_with (fun () ->
    let count = ref 0 in
    Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ]
      (Some (fun w ->
         incr count;
         Kernel.Uspace.htg_trap w));
    let pid =
      check_ok "fork"
        (Libc.Unistd.fork ~child:(fun () ->
           ignore (Libc.Unistd.getpid ());
           0))
    in
    let _ = check_ok "wait" (Libc.Unistd.waitpid pid 0) in
    (* parent's getpid + child's getpid, both intercepted (the vector
       is copied with the address space; the handler state is shared) *)
    ignore (Libc.Unistd.getpid ());
    if !count >= 2 then 0 else 1)
  in
  Alcotest.(check int) "vector copied on fork" 0 (exit_code status)

(* --- misc -------------------------------------------------------------------- *)

let test_getdirentries_via_readdir () =
  let listing = ref [] in
  let _, _ = boot_with (fun () ->
    check_ok "mkdir" (Libc.Unistd.mkdir "/tmp/dir" 0o755);
    check_ok "a" (Libc.Stdio.write_file "/tmp/dir/a" "1");
    check_ok "b" (Libc.Stdio.write_file "/tmp/dir/b" "2");
    check_ok "c" (Libc.Stdio.write_file "/tmp/dir/c" "3");
    listing := check_ok "names" (Libc.Dirstream.names "/tmp/dir");
    0)
  in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] !listing

let test_gettimeofday_monotonic () =
  let _, status = boot_with (fun () ->
    let t1 = check_ok "tod" (Libc.Unistd.gettimeofday ()) in
    ignore (Libc.Unistd.sleep_us 100_000);
    let t2 = check_ok "tod" (Libc.Unistd.gettimeofday ()) in
    if compare t2 t1 > 0 then 0 else 1)
  in
  Alcotest.(check int) "monotonic" 0 (exit_code status)

let test_deadlock_detected () =
  (* a process reading from a pipe with the write end still open in its
     own fd table but never written: scheduler must not hang *)
  let k, _ = boot_with (fun () ->
    let r, _w = check_ok "pipe" (Libc.Unistd.pipe ()) in
    let buf = Bytes.create 1 in
    ignore (Libc.Unistd.read r buf 1);
    0)
  in
  Alcotest.(check bool) "stragglers killed" true (Kernel.deadlock_kills k > 0)

let test_isatty () =
  let _, status = boot_with (fun () ->
    if Libc.Unistd.isatty 1 then 0 else 1)
  in
  Alcotest.(check int) "stdout is a tty" 0 (exit_code status)

(* --- trap completion ------------------------------------------------------ *)

(* Each trap's kernel half runs on the caller's fibre and returns
   directly exactly when the scheduler would have popped the caller
   straight back: no signal pending, an empty run queue, no timer due.
   The [suspends] counter sees every hand-over to the scheduler. *)
let test_inline_iff_guards () =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  let suspends () = (Kernel.codec_stats k).Envelope.Stats.suspends in
  let counts = ref [] in
  let count what f =
    let s0 = suspends () in
    f ();
    counts := (what, suspends () - s0) :: !counts
  in
  let status =
    Kernel.boot k ~name:"inline" (fun () ->
      let open Libc.Unistd in
      count "guards hold" (fun () ->
        for _ = 1 to 100 do ignore (getppid ()) done;
        cpu_work 1_000);
      ignore (signal Signal.sigusr1 (Value.H_fn ignore));
      count "kill to self" (fun () ->
        ignore (kill (getpid ()) Signal.sigusr1));
      ignore (signal Signal.sigalrm (Value.H_fn ignore));
      ignore (alarm 1);
      (* the 25 µs getppid crosses the deadline 10 µs in *)
      cpu_work 999_990;
      count "timer due inside the trap" (fun () -> ignore (getppid ()));
      count "its signal at the next trap" (fun () -> ignore (getppid ()));
      count "guards hold again" (fun () ->
        for _ = 1 to 100 do ignore (getppid ()) done);
      count "fork and reap" (fun () ->
        let pid = check_ok "fork" (fork ~child:(fun () -> 0)) in
        ignore (check_ok "wait" (waitpid pid 0)));
      count "alone again" (fun () ->
        for _ = 1 to 100 do ignore (getppid ()) done);
      0)
  in
  Alcotest.(check int) "exit" 0 (exit_code status);
  (* fork: the child is enqueued, so fork yields (1); the child's exit
     trap never returns (1); the parent's wait then finds a zombie and
     nothing pending (SIGCHLD's default action drops it when posted),
     so it returns inline *)
  Alcotest.(check (list (pair string int))) "suspends per case"
    [ ("guards hold", 0); ("kill to self", 1);
      ("timer due inside the trap", 1); ("its signal at the next trap", 1);
      ("guards hold again", 0); ("fork and reap", 2); ("alone again", 0) ]
    (List.rev !counts);
  let json = Kernel.metrics_json k in
  let codec_suspends =
    Option.bind (Obs.Json.member "codec" json) (fun c ->
        Option.bind (Obs.Json.member "suspends" c) Obs.Json.to_int)
  in
  Alcotest.(check (option int)) "metrics_json codec.suspends"
    (Some (suspends ())) codec_suspends

exception Kernel_fault

(* A kernel exception surfaces from the scheduler, as it would from a
   real kernel panic: it never unwinds through the application, so a
   catch-all in user code cannot swallow it — on the inline path or
   after a suspend. *)
let test_kernel_exception_escapes_user_code () =
  List.iter
    (fun crowded ->
      let k = Kernel.create () in
      Kernel.populate_standard k;
      Kernel.set_trace_hook k
        (Some
           (fun _ call _ ->
             match call with Call.Getppid -> raise Kernel_fault | _ -> ()));
      let swallowed = ref false and after = ref false in
      let escaped =
        match
          Kernel.boot k ~name:"panic" (fun () ->
            if crowded then
              ignore
                (check_ok "fork"
                   (Libc.Unistd.fork ~child:(fun () -> 0)));
            (try ignore (Libc.Unistd.getppid ())
             with _ -> swallowed := true);
            after := true;
            0)
        with
        | _ -> false
        | exception Kernel_fault -> true
      in
      let what = if crowded then "with a sibling" else "alone" in
      Alcotest.(check bool) ("escapes to the scheduler, " ^ what) true escaped;
      Alcotest.(check bool) ("user catch-all not run, " ^ what) false
        !swallowed;
      Alcotest.(check bool) ("caller not resumed, " ^ what) false !after)
    [ false; true ]

(* A killed process stays dead.  SIGKILL on a parked child
   discontinues its fibre synchronously, inside the killer's kill.  If
   the child's code catches [Process_killed] and traps again from its
   own context, the trap must not finish inline: the scheduler
   discards the fibre at that trap, so no code after it runs. *)
let test_killed_fibre_discarded_at_next_trap () =
  let caught = ref false and after = ref false in
  let _, status = boot_with (fun () ->
    let open Libc.Unistd in
    let r, _w = check_ok "pipe" (pipe ()) in
    let pid =
      check_ok "fork"
        (fork ~child:(fun () ->
           let me = Kernel.Uspace.self () in
           (try ignore (read r (Bytes.create 1) 1)
            with Kernel.Events.Process_killed ->
              caught := true;
              (Kernel.current_exn ()).Kernel.Kstate.running <- Some me);
           ignore (getppid ());
           after := true;
           0))
    in
    (* let the child park on the empty pipe *)
    ignore (sleep_us 1_000);
    check_ok "kill" (kill pid Signal.sigkill);
    let _, st = check_ok "wait" (waitpid pid 0) in
    if Flags.Wait.wifsignaled st && Flags.Wait.wtermsig st = Signal.sigkill
    then 0
    else 1)
  in
  Alcotest.(check int) "child reaped as killed" 0 (exit_code status);
  Alcotest.(check bool) "child caught the kill" true !caught;
  Alcotest.(check bool) "code after the trap not run" false !after

(* The [host] block divides by traps, so its baselines must be taken
   when the shard's first process starts: host-side set-up before boot
   (here: file writes allocating at least 1 M minor words) is not trap
   work.  A 2000-trap getpid session costs tens of words per trap. *)
let test_host_stats_exclude_setup () =
  let k = Kernel.create () in
  Kernel.populate_standard k;
  let w0 = Gc.minor_words () in
  let i = ref 0 in
  while Gc.minor_words () -. w0 < 1_000_000. do
    Kernel.write_file k ~path:(Printf.sprintf "/tmp/setup%d" (!i mod 64))
      (String.make 64 'x');
    incr i
  done;
  let status =
    Kernel.boot k ~name:"getpid" (fun () ->
      for _ = 1 to 2000 do
        ignore (Libc.Unistd.getpid ())
      done;
      0)
  in
  Alcotest.(check int) "session exit" 0 (exit_code status);
  let h = Kernel.host_stats k in
  Alcotest.(check bool) "at least 2000 traps" true (h.Kernel.h_traps >= 2000);
  if h.Kernel.h_minor_words_per_trap >= 200. then
    Alcotest.failf "%.1f minor words/trap: set-up counted as trap work"
      h.Kernel.h_minor_words_per_trap

let () =
  Alcotest.run "kernel"
    [ "boot",
      [ Alcotest.test_case "exit code" `Quick test_boot_exit_code;
        Alcotest.test_case "stdio" `Quick test_boot_stdio;
        Alcotest.test_case "clock advances" `Quick test_clock_advances ];
      "file-io",
      [ Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
        Alcotest.test_case "ENOENT" `Quick test_open_enoent;
        Alcotest.test_case "lseek+append" `Quick test_lseek_and_append;
        Alcotest.test_case "dup shares offset" `Quick
          test_dup2_shares_offset;
        Alcotest.test_case "readdir" `Quick test_getdirentries_via_readdir ];
      "process",
      [ Alcotest.test_case "fork/wait" `Quick test_fork_wait;
        Alcotest.test_case "inherit cwd+fds" `Quick
          test_fork_inherits_cwd_and_fds;
        Alcotest.test_case "ECHILD" `Quick test_wait_echild;
        Alcotest.test_case "zombie once" `Quick test_zombie_reaped_once ];
      "pipe",
      [ Alcotest.test_case "parent/child" `Quick test_pipe_parent_child;
        Alcotest.test_case "backpressure" `Quick
          test_pipe_blocking_backpressure;
        Alcotest.test_case "EPIPE" `Quick test_epipe_and_sigpipe;
        Alcotest.test_case "SIGPIPE default" `Quick
          test_sigpipe_kills_by_default ];
      "signal",
      [ Alcotest.test_case "handler" `Quick test_handler_runs;
        Alcotest.test_case "SIGTERM default" `Quick
          test_sigterm_default_kills;
        Alcotest.test_case "mask defers" `Quick test_sigmask_defers;
        Alcotest.test_case "alarm EINTR" `Quick test_alarm_interrupts_sleep;
        Alcotest.test_case "sleep clock" `Quick test_sleep_advances_clock;
        Alcotest.test_case "SIGKILL" `Quick test_sigkill_unblockable ];
      "execve",
      [ Alcotest.test_case "exec image" `Quick test_execve;
        Alcotest.test_case "ENOEXEC" `Quick test_execve_enoexec;
        Alcotest.test_case "clears emulation" `Quick
          test_execve_clears_emulation ];
      "interception",
      [ Alcotest.test_case "intercept+htg" `Quick test_interception_and_htg;
        Alcotest.test_case "fork inherits vector" `Quick
          test_emulation_inherited_by_fork ];
      "misc",
      [ Alcotest.test_case "gettimeofday" `Quick test_gettimeofday_monotonic;
        Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
        Alcotest.test_case "isatty" `Quick test_isatty;
        Alcotest.test_case "host stats exclude pre-boot set-up" `Quick
          test_host_stats_exclude_setup ];
      "trap completion",
      [ Alcotest.test_case "inline iff the guards hold" `Quick
          test_inline_iff_guards;
        Alcotest.test_case "kernel exception escapes user code" `Quick
          test_kernel_exception_escapes_user_code;
        Alcotest.test_case "killed fibre discarded at its next trap" `Quick
          test_killed_fibre_discarded_at_next_trap ] ]
