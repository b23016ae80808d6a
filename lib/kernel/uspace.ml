open Abi

let self () = Proc.Cur.get_exn ()

(* One definition of signal dispatch, shared by the trap exit path here
   and by the toolkit's [Downlink.down_signal] chain. *)
let deliver_app (proc : Proc.t) s =
  (* one instant mark per signal that reaches the application, whatever
     its disposition — chrome export renders these as instants *)
  if Obs.enabled () then begin
    let span = Obs.current () in
    Obs.record_mark ~span ~pid:proc.Proc.pid ~kind:"signal"
      ~detail:(Signal.name s) ();
    (* completes the sender's pending half-edge when this delivery was
       kill-originated (DESIGN.md §3.9); no-op otherwise *)
    Obs.causal_signal_delivered ~pid:proc.Proc.pid ~signal:s ~span
      ~detail:(Signal.name s)
  end;
  match Proc.handler proc s with
  | Value.H_fn f -> f s
  | Value.H_default | Value.H_ignore -> ()

let deliver_via interposer s =
  match interposer with
  | Some f -> f s
  | None -> deliver_app (self ()) s

let deliver_one (proc : Proc.t) s =
  match proc.emul.sig_emul with
  | Some interposer -> interposer s
  | None -> deliver_app proc s

let deliver proc sigs = List.iter (deliver_one proc) sigs

let leave = function Some fr -> Obs.layer_exit fr | None -> ()

(* Hand the calling fibre to the scheduler: the [Suspend] handler
   applies [settle] to its continuation, and the fibre resumes (if
   ever) with the reply.  The "kernel" frame [fr] closes before any
   signal reaches the application, and on an unwind. *)
let suspend (proc : Proc.t) fr settle : Value.res =
  Envelope.Stats.note_suspend ();
  match Effect.perform (Events.Suspend settle) with
  | reply ->
    leave fr;
    deliver proc reply.deliver;
    reply.res
  | exception e ->
    leave fr;
    raise e

(* The kernel half of a trap, on the caller's fibre: Jones's last
   procedure call, into the kernel beneath every agent.  [Trap.dispatch]
   runs in no process's context, exactly as it would under the
   scheduler.  A plain reply returns directly when [Kstate.may_continue]
   says the scheduler would pop this fibre straight back: the process
   still runnable, no signal to deliver (and so no terminal decision),
   an empty run queue, no timer due.  Anything else — a pending signal, another runnable fibre, a
   due timer, a park, exit or exec — suspends once and lets the
   scheduler settle the outcome already in hand; nothing is dispatched
   twice.  An exception out of the kernel is re-raised from the
   scheduler's side, so no [try] in user code can swallow it. *)
let kernel_call (proc : Proc.t) (env : Envelope.t) (via : Events.via) =
  match !Kstate.Ambient.current with
  | None -> invalid_arg "Uspace: system call outside a kernel shard"
  | Some t ->
    let fr = Obs.layer_enter ~span:(Envelope.span env) "kernel" in
    let cur = Proc.Cur.get () in
    let pre_mask = proc.sigs.mask in
    Proc.Cur.set None;
    match Trap.dispatch t proc env via ~first:true with
    | Kstate.Done res
      when Kstate.may_continue t proc ~at:(Sim.Clock.now_us t.Kstate.clock) ->
      Proc.Cur.set cur;
      leave fr;
      res
    | outcome ->
      suspend proc fr (fun k ->
          Trap.settle t proc env via ~pre_mask k outcome)
    | exception e -> suspend proc fr (fun _ -> raise e)

(* nothing interposed: the kernel is the only layer below us *)
let to_kernel (proc : Proc.t) (env : Envelope.t) : Value.res =
  kernel_call proc env Events.App

(* The chain's jump target for slots with no handler installed:
   Proc sits below this module, so it reaches [to_kernel] through a
   forward reference filled exactly once, here. *)
let () = Proc.chain_kernel_entry := fun env -> to_kernel (self ()) env

(* Charge [us] of virtual CPU time to [proc] and collect any signals
   that became deliverable, preferably without performing an effect.

   The [Events.Cpu] perform captures the whole fibre continuation and
   round-trips through the run queue — by far the dominant *host* cost
   of an interested trap (one perform per agent dispatch layer).  So
   the scheduler's Cpu handler is replicated inline under the guard
   trap completion uses, [Kstate.may_continue], taken at [now + us]:
   the scheduling point the perform would create comes after the
   charge.  When it fails, the scheduler's Cpu handler does the work. *)
let cpu_charge (proc : Proc.t) us : int list =
  match !Kstate.Ambient.current with
  | Some t
    when Kstate.may_continue t proc
           ~at:(Sim.Clock.now_us t.Kstate.clock + us) ->
    proc.utime_us <- proc.utime_us + us;
    Kstate.charge t us;
    []
  | _ ->
    Envelope.Stats.note_suspend ();
    Effect.perform (Events.Cpu us)

let trap_raw (env : Envelope.t) : Value.res =
  let proc = self () in
  proc.syscall_count <- proc.syscall_count + 1;
  let num = Envelope.number env in
  let chain = proc.emul.chain in
  (* out-of-range numbers (negative, foreign-ABI sized) have no slot:
     the kernel answers them *)
  let h =
    if num >= 0 && num < Array.length chain then chain.(num)
    else Proc.chain_unset
  in
  if h == Proc.chain_unset then begin
    (* Fast path: nothing interposed for this number. *)
    Envelope.Stats.note_trap_fast ();
    to_kernel proc env
  end
  else begin
    (* The slot is the installed handler itself: no option match. *)
    Envelope.Stats.note_trap_chained ();
    (match cpu_charge proc Cost_model.intercept_us with
     | [] -> ()
     | sigs -> deliver proc sigs);
    h env
  end

(* Open a span around one trap.  The envelope is built *inside* the
   span (the [mk_env] thunk) so that a boundary encode — and any other
   codec work at construction — attributes to the "uspace" frame rather
   than vanishing.  Observation itself charges no virtual time. *)
let instrumented ~sysno mk_env =
  let proc = self () in
  let span = Obs.span_begin ~pid:proc.pid ~sysno in
  let fr = Obs.layer_enter ~span "uspace" in
  let finish ~error =
    (match fr with Some fr -> Obs.layer_exit fr | None -> ());
    Obs.span_end span ~error
  in
  let made = ref None in
  let sev = ref None in
  match
    let env = mk_env () in
    made := Some env;
    Envelope.set_span env span;
    (* The signature tap piggybacks on the span stream: one event per
       application-issued trap, shape computed only while capture is on.
       Independent of the sampler, so signature counts stay exact at
       any 1-in-N rate.  A trap that never returns here (exit, exec)
       keeps its pending outcome. *)
    if Obs.sig_capturing () then
      sev := Some (Obs.sig_note ~pid:proc.pid ~sysno (Envelope.shape env));
    trap_raw env
  with
  | res ->
    (* Normal completion only: on an exception the envelope may still
       be referenced by whoever threw, so it is left to the GC. *)
    (match !made with Some env -> Envelope.release env | None -> ());
    (match !sev with
     | Some ev ->
       Obs.sig_done ev
         ~errno:(match res with Ok _ -> 0 | Error e -> Errno.to_int e)
     | None -> ());
    finish ~error:(Result.is_error res);
    res
  | exception e ->
    finish ~error:true;
    raise e

let trap (env : Envelope.t) : Value.res =
  (* re-entrant traps (an envelope already inside a span) and the
     tracing-off fast path skip straight to the raw trap *)
  if (not (Obs.enabled ())) || Envelope.span env <> 0 then trap_raw env
  else instrumented ~sysno:(Envelope.number env) (fun () -> env)

let trap_wire w =
  if not (Obs.enabled ()) then trap_raw (Envelope.of_wire w)
  else instrumented ~sysno:w.Value.num (fun () -> Envelope.of_wire w)

(* the application/system boundary is untyped: encode here, and let the
   first interested layer below (agent or kernel) do the one decode;
   the envelope record around the wire comes from (and returns to) the
   calling process's pool *)
let syscall c =
  let proc = self () in
  let epool = proc.Proc.env_pool in
  if not (Obs.enabled ()) then begin
    let env = Envelope.at_boundary ?epool c in
    let res = trap_raw env in
    Envelope.release env;
    res
  end
  else
    instrumented ~sysno:(Call.number c) (fun () ->
        Envelope.at_boundary ?epool c)

let htg_trap (env : Envelope.t) : Value.res =
  kernel_call (self ()) env Events.Htg

let htg_unix_syscall w = htg_trap (Envelope.of_wire w)

(* agent-originated: the typed view rides the envelope down, never
   paying an encode unless some layer demands the wire form; the
   record is pooled like any boundary envelope (an exit/exec that
   never returns simply leaks its record to the GC) *)
let htg_syscall c =
  let proc = self () in
  let env = Envelope.of_call ?epool:proc.Proc.env_pool c in
  let res = htg_trap env in
  Envelope.release env;
  res

let cpu_work us =
  if us > 0 then begin
    let proc = self () in
    match cpu_charge proc us with
    | [] -> ()
    | sigs -> deliver proc sigs
  end

let task_set_emulation ~numbers handler =
  Effect.perform (Events.Set_emulation (numbers, handler))

let task_get_emulation n = Effect.perform (Events.Get_emulation n)

let task_set_emulation_signal h =
  Effect.perform (Events.Set_emulation_signal h)

let task_get_emulation_signal () =
  Effect.perform Events.Get_emulation_signal

let exec_load spec =
  Effect.perform (Events.Exec_load spec);
  assert false
