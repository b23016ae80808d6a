open Abi

module Signature = Signature
module Strace = Strace

(* The differential transparency checker: run a workload bare, run it
   again under an agent stack, and require the two syscall signatures
   to agree once quotiented by the stack's own declared delta.  An
   agent may do anything it declared; anything residual is a
   machine-checked transparency violation, pinned to the first
   diverging call.

   The workload plumbing (kernel construction, image registration,
   setup, boot) deliberately reuses [Fault.Campaign.workload]: the
   conformance matrix sweeps exactly the campaign workloads, and a
   CLI-supplied program is just a workload with a spawn body. *)

type workload = Fault.Campaign.workload

(* --- stacks -------------------------------------------------------------- *)

(* [sk_make] runs inside the booted init process, before the workload
   body: it may issue system calls (e.g. opening a trace sink), none
   of which enter the signature — capture starts only once the stack
   is installed.  The returned list is in install order, bottom-most
   agent first. *)
type stack = {
  sk_name : string;
  sk_make : unit -> Toolkit.Numeric.numeric_syscall list;
}

let bare = { sk_name = "bare"; sk_make = (fun () -> []) }

let agent a = (a :> Toolkit.Numeric.numeric_syscall)

(* The trace sink: a descriptor whose writes go nowhere, so tracing a
   bench workload does not flood the console.  It is moved to the top
   of the descriptor table — an agent descriptor parked at 3 would
   shift every fd the client subsequently receives, and the checker
   (correctly) flags that as a transparency violation; real tracers
   relocate their descriptors for exactly this reason. *)
let trace_fd () =
  match Libc.Unistd.open_ "/dev/null" Flags.Open.o_wronly 0 with
  | Error _ -> 2
  | Ok fd -> (
    let high = Libc.Unistd.getdtablesize () - 1 in
    match Libc.Unistd.dup2 fd high with
    | Ok _ ->
      ignore (Libc.Unistd.close fd);
      high
    | Error _ -> fd)

let trace = {
  sk_name = "trace";
  sk_make = (fun () -> [ agent (Agents.Trace.create ~fd:(trace_fd ()) ()) ]);
}

let crypt = {
  sk_name = "crypt";
  sk_make =
    (fun () -> [ agent (Agents.Crypt.create ~key:42 ~subtrees:[ "/vault" ]) ]);
}

(* a policy wide enough for any workload: sandbox transparency is the
   statement that an all-permitting policy leaves no trace *)
let sandbox = {
  sk_name = "sandbox";
  sk_make =
    (fun () -> [ agent (Agents.Sandbox.create Agents.Sandbox.open_policy) ]);
}

let remap = {
  sk_name = "remap";
  sk_make = (fun () -> [ agent (Agents.Remap.create ()) ]);
}

let timex = {
  sk_name = "timex";
  sk_make =
    (fun () -> [ agent (Agents.Timex.create ~offset_seconds:3600 ()) ]);
}

let stacked = {
  sk_name = "stacked";
  sk_make =
    (fun () ->
      [
        agent (Agents.Sandbox.create Agents.Sandbox.open_policy);
        agent (Agents.Crypt.create ~key:42 ~subtrees:[ "/vault" ]);
        agent (Agents.Trace.create ~fd:(trace_fd ()) ());
      ]);
}

(* an injector with an empty plan: the honest no-op — conformance of
   this stack is the statement that the injection machinery itself
   (site matching, restart bookkeeping) leaves no trace *)
let faultinject = {
  sk_name = "faultinject";
  sk_make = (fun () -> [ agent (Agents.Faultinject.create_planned []) ]);
}

(* The seeded mutation: an injector that fails the second read with
   EIO but declares no delta at all.  Honest fault injectors restate
   their plan as a [May_fail] mask; this one lies by omission, and the
   checker must catch it. *)
class undeclared_fault =
  object
    inherit
      Agents.Faultinject.planned
        ~plan:
          [
            Agents.Faultinject.site ~kth:2 Sysno.sys_read
              (Agents.Faultinject.Fail Errno.EIO);
          ]

    method! agent_name = "mutant"
    method! declared_delta = Delta.none
  end

let mutant =
  { sk_name = "mutant"; sk_make = (fun () -> [ agent (new undeclared_fault) ]) }

let stacks = [ trace; crypt; sandbox; faultinject; remap; timex; stacked ]
let all_stacks = (bare :: stacks) @ [ mutant ]

let stack_of_name name =
  List.find_opt (fun s -> s.sk_name = name) all_stacks

(* "trace,crypt" composes the named stacks' layers into one stack (in
   spec order, bottom-most first) *)
let of_spec spec =
  let names =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then Error "empty stack spec"
  else
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match stack_of_name n with
        | Some s -> resolve (s :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown stack %S (known: %s)" n
               (String.concat ", "
                  (List.map (fun s -> s.sk_name) all_stacks))))
    in
    match resolve [] names with
    | Error _ as e -> e
    | Ok [ s ] -> Ok s
    | Ok parts ->
      Ok
        {
          sk_name = spec;
          sk_make =
            (fun () -> List.concat_map (fun s -> s.sk_make ()) parts);
        }

(* --- capture -------------------------------------------------------------- *)

type capture = {
  cap_sig : Signature.t;
  cap_status : int;
  cap_delta : Delta.t;
}

(* One instrumented run.  The engine switches (enabled, sig-capture)
   must be on *before* [Kernel.create] so the kernel's private engine
   copies them; the tap itself is armed only after the stack is
   installed, so agent construction syscalls stay out of the
   signature.  Ambient obs state is restored on the way out, exactly
   as [Fault.Campaign.baseline] does. *)
let capture (w : workload) stack =
  let was_enabled = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let k = Kernel.create () in
  Workloads.Scribe.register k;
  Workloads.Make_cc.register k;
  Workloads.Kvd.register k;
  Kernel.populate_standard k;
  w.Fault.Campaign.w_setup k;
  let delta = ref Delta.none in
  let status =
    Kernel.boot k ~name:(w.Fault.Campaign.w_name ^ "-conform") (fun () ->
      let agents = stack.sk_make () in
      List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents;
      delta := Delta.compose (List.map (fun a -> a#declared_delta) agents);
      Obs.sig_capture true;
      let rc = w.Fault.Campaign.w_body () in
      Obs.sig_capture false;
      rc)
  in
  let s = Signature.of_obs (Obs.sig_events ()) in
  Obs.sig_clear ();
  Obs.sig_capture false;
  Obs.disable ();
  Obs.reset ();
  if was_enabled then Obs.enable ();
  { cap_sig = s; cap_status = status; cap_delta = !delta }

(* --- the check ------------------------------------------------------------ *)

type verdict = {
  c_workload : string;
  c_stack : string;
  c_delta : Delta.t;
  c_bare_events : int;
  c_under_events : int;
  c_masked : int;
  c_bare_status : int;
  c_under_status : int;
  c_violation : Signature.divergence option;
}

let conforms v = v.c_violation = None

(* [scope] picks the comparison quotient: [`Global] demands the whole
   interleaved stream match (right for sequential workloads), while
   [`Per_process] compares each pid's stream in isolation — required
   for concurrent workloads like kvd, where an agent charging virtual
   time lawfully reshuffles the cross-process interleaving. *)
let check ?baseline ?(scope = `Global) (w : workload) stack =
  let b =
    match baseline with Some b -> b | None -> capture w bare
  in
  let u = capture w stack in
  (* normalize BOTH sides by the stack's declared delta: a May_fail
     mask collapses the corresponding bare outcomes too, otherwise a
     declared injection would still diverge *)
  let nb = Signature.normalize u.cap_delta b.cap_sig in
  let nu = Signature.normalize u.cap_delta u.cap_sig in
  {
    c_workload = w.Fault.Campaign.w_name;
    c_stack = stack.sk_name;
    c_delta = u.cap_delta;
    c_bare_events = Signature.length b.cap_sig;
    c_under_events = Signature.length u.cap_sig;
    c_masked = Signature.masked nu;
    c_bare_status = b.cap_status;
    c_under_status = u.cap_status;
    c_violation =
      (match scope with
       | `Global -> Signature.diff ~bare:nb ~under:nu
       | `Per_process -> Signature.diff_processes ~bare:nb ~under:nu);
  }

let verdict_to_string v =
  match v.c_violation with
  | None ->
    Printf.sprintf "%s under %s: conformant (%d calls%s, delta %s)"
      v.c_workload v.c_stack v.c_under_events
      (if v.c_masked > 0 then Printf.sprintf ", %d masked" v.c_masked
       else "")
      (Delta.to_string v.c_delta)
  | Some d ->
    Printf.sprintf "%s under %s: VIOLATION\n%s" v.c_workload v.c_stack
      (Signature.divergence_to_string d)

let verdict_to_json v =
  let open Obs.Json in
  Obj
    [
      ("workload", Str v.c_workload);
      ("stack", Str v.c_stack);
      ("delta", Str (Delta.to_string v.c_delta));
      ("bare_events", Int v.c_bare_events);
      ("under_events", Int v.c_under_events);
      ("masked", Int v.c_masked);
      ("conformant", Bool (conforms v));
      ( "violation",
        match v.c_violation with
        | None -> Null
        | Some d -> Signature.divergence_to_json d );
    ]

(* --- the inline CPU charge and trap completion ------------------------------- *)

(* [Uspace.cpu_work] charges inline when its guards allow and falls
   back to the scheduler's [Cpu] handler otherwise; a trap likewise
   finishes on the caller's fibre under the same guards and suspends
   to the scheduler otherwise.  One scenario drives a charge function
   through the cases where a difference could show, logging each point
   as (what, clock µs, user-time µs) since its start:
   (a) all guards hold: the clock and user time advance by exactly the
       charge, and nothing is delivered;
   (b) an alarm falls due inside the window: the handler runs, and the
       timer fires at the scheduling point it creates, leaving SIGALRM
       pending;
   (c) the pending signal meets an intercepted trap: it is delivered
       before the emulation handler runs;
   (d) an alarm falls due inside a trap's own kernel cost: the trap
       yields, the timer fires, and SIGALRM reaches the next trap;
   (e) a kill to self with a handled signal: delivered on the way out
       of the kill itself;
   (f) fork: the child is enqueued, so each trap of either process
       yields to the other, a read on an empty pipe parks the parent
       until the child writes, and the child's kill to self with
       SIGKILL ends it at that trap. *)
let charge_by_handler us =
  let proc = Kernel.Uspace.self () in
  List.iter (Kernel.Uspace.deliver_app proc)
    (Effect.perform (Kernel.Events.Cpu us))

let charge_log charge =
  let open Libc.Unistd in
  let k = Kernel.create () in
  let now () = Sim.Clock.now_us (Kernel.clock k) in
  let utime () = (Kernel.Uspace.self ()).Kernel.Proc.utime_us in
  let log = ref [] and t0 = ref 0 and u0 = ref 0 in
  let note what = log := (what, now () - !t0, utime () - !u0) :: !log in
  let status =
    Kernel.boot k ~name:"charge" (fun () ->
      ignore (signal Signal.sigalrm (Value.H_fn (fun _ -> note "sigalrm")));
      Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ]
        (Some (fun env -> note "handler"; Kernel.Uspace.htg_trap env));
      t0 := now ();
      u0 := utime ();
      charge 500;
      note "charged";
      ignore (alarm 1);
      charge 2_000_000;
      note "charged";
      ignore (getpid ());
      note "returned";
      Kernel.Uspace.task_set_emulation ~numbers:[ Sysno.sys_getpid ] None;
      (* (d) *)
      ignore (alarm 1);
      charge 999_990;
      ignore (getppid ());
      note "trap across alarm";
      ignore (getppid ());
      note "trap after alarm";
      (* (e) *)
      ignore (signal Signal.sigusr1 (Value.H_fn (fun _ -> note "sigusr1")));
      ignore (kill (getpid ()) Signal.sigusr1);
      note "killed self";
      (* (f) *)
      let r, w = ok_exn "pipe" (pipe ()) in
      let child () =
        note "child runs";
        ignore (getppid ());
        note "child trapped";
        charge 100;
        ignore (write w "x");
        note "child wrote";
        ignore (kill (getpid ()) Signal.sigkill);
        note "child outlived SIGKILL";
        0
      in
      let pid = ok_exn "fork" (fork ~child) in
      note "parent forked";
      ignore (getppid ());
      note "parent trapped";
      ignore (read r (Bytes.create 1) 1);
      note "parent read";
      let _, st = ok_exn "waitpid" (waitpid pid 0) in
      note (Printf.sprintf "reaped status %d" st);
      0)
  in
  (status, List.rev !log)

(* What both paths must log: the timeline recorded under the
   scheduler's handlers, before traps could finish inline.  The first
   1 s alarm fires after the 2 s charge (and the 50 µs alarm call) and
   reaches the application 30 µs later, at the intercept charge of the
   next trap.  The second falls due 15 µs before the end of a 25 µs
   getppid: that trap yields, the timer fires, and SIGALRM reaches the
   next trap.  From the fork on, the two processes alternate trap by
   trap; the child's user time starts at zero. *)
let charge_expected =
  [ ("charged", 500, 500);
    ("charged", 2_000_550, 2_000_500);
    ("sigalrm", 2_000_580, 2_000_530);
    ("handler", 2_000_580, 2_000_530);
    ("returned", 2_000_642, 2_000_530);
    ("trap across alarm", 3_000_707, 3_000_520);
    ("sigalrm", 3_000_732, 3_000_520);
    ("trap after alarm", 3_000_732, 3_000_520);
    ("sigusr1", 3_000_897, 3_000_520);
    ("killed self", 3_000_897, 3_000_520);
    ("child runs", 3_011_197, 0);
    ("parent forked", 3_011_222, 3_000_520);
    ("child trapped", 3_011_247, 0);
    ("parent trapped", 3_011_347, 3_000_520);
    ("child wrote", 3_011_625, 100);
    ("parent read", 3_011_650, 3_000_520);
    ("reaped status 9", 3_011_830, 3_000_520) ]

(* --- workload helpers ----------------------------------------------------- *)

let workloads = Fault.Campaign.workloads
let workload_of_name = Fault.Campaign.of_name

let workload_of_body ~name ?(setup = fun (_ : Kernel.t) -> ()) body =
  {
    Fault.Campaign.w_name = name;
    w_seed = 1;
    w_setup = setup;
    w_body = body;
    w_output = "";
  }
