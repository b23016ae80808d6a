open Abi

(* --- fibre plumbing ------------------------------------------------------ *)

let enqueue_resume (t : Kstate.t) (proc : Proc.t) k v =
  Kstate.enqueue t (fun () -> Kstate.resume t proc k v)

(* Terminal (default-action) signals left pending by
   collect_deliverable: decide the process's fate at a trap boundary.
   Nothing pending, nothing to decide — the common case skips the
   scan. *)
let pending_terminal (proc : Proc.t) =
  if proc.sigs.pending = 0 then `None
  else begin
    let result = ref `None in
    (try
       for s = 1 to Signal.max_signal do
         if Signal.Mask.mem proc.sigs.pending s
            && (s = Signal.sigkill || s = Signal.sigstop
                || not (Signal.Mask.mem proc.sigs.mask s))
         then begin
           let dispo =
             if s = Signal.sigkill then `Terminate
             else if s = Signal.sigstop then `Stop
             else
               match Proc.handler proc s with
               | Value.H_default ->
                 (match Signal.default_action s with
                  | Signal.Terminate -> `Terminate
                  | Signal.Stop -> `Stop
                  | Signal.Ignore | Signal.Continue -> `Other)
               | Value.H_ignore | Value.H_fn _ -> `Other
           in
           match dispo with
           | `Terminate ->
             result := `Kill (s, Flags.Wait.sig_status s);
             raise Exit
           | `Stop ->
             result := `Stop s;
             raise Exit
           | `Other -> ()
         end
       done
     with Exit -> ());
    !result
  end

(* Deliver a reply to a process at a trap boundary, honouring pending
   terminal signals and stops. *)
let finish_reply (t : Kstate.t) (proc : Proc.t) k (reply : Events.trap_reply) =
  let reply =
    match Kstate.collect_deliverable t proc with
    | [] -> reply
    | more -> { reply with deliver = reply.deliver @ more }
  in
  match pending_terminal proc with
  | `Kill (s, status) ->
    proc.sigs.pending <- Signal.Mask.remove proc.sigs.pending s;
    Kstate.terminate_fiber t proc k status
  | `Stop s ->
    proc.sigs.pending <- Signal.Mask.remove proc.sigs.pending s;
    proc.state <- Proc.Stopped { sk = k; reply };
    (match Kstate.proc t proc.ppid with
     | Some parent ->
       Kstate.post_signal t parent Signal.sigchld;
       Kstate.wake_key t (Kstate.K_child parent.pid)
     | None -> ())
  | `None -> enqueue_resume t proc k reply

let keys_of_cond (cond : Proc.cond) : Kstate.wait_key list =
  match cond with
  | Proc.On_child -> []          (* keyed by the waiter itself *)
  | Proc.On_pipe_read i -> [ Kstate.K_pipe_r i ]
  | Proc.On_pipe_write i -> [ Kstate.K_pipe_w i ]
  | Proc.On_fifo_read i -> [ Kstate.K_fifo_r i ]
  | Proc.On_fifo_write i -> [ Kstate.K_fifo_w i ]
  | Proc.On_accept i -> [ Kstate.K_accept i ]
  | Proc.On_connq i -> [ Kstate.K_connq i ]
  | Proc.On_time _ -> []         (* woken by the timer wheel *)
  | Proc.On_signal -> []         (* woken by signal posting *)
  | Proc.On_select s ->
    List.map (fun i -> Kstate.K_pipe_r i) s.rpipes
    @ List.map (fun i -> Kstate.K_pipe_w i) s.wpipes
    @ List.map (fun i -> Kstate.K_fifo_r i) s.rfifos
    @ List.map (fun i -> Kstate.K_fifo_w i) s.wfifos
    @ List.map (fun i -> Kstate.K_accept i) s.rlisten

let base_cost (via : Events.via) call =
  Cost_model.syscall_us call
  + (match via with
     | Events.Htg -> Cost_model.htg_overhead_us
     | Events.App -> 0)

let start_exec (t : Kstate.t) (proc : Proc.t) (spec : Events.exec_spec) =
  (* the exec trap's span(s) can never be closed by the code that
     opened them — the old fibre is abandoned here *)
  Obs.abort_pid proc.pid;
  if not spec.keep_emulation then proc.emul <- Proc.fresh_emulation ();
  t.hooks.spawn proc spec.exec_body

(* --- the two halves of a trap -------------------------------------------- *)

let dispatch (t : Kstate.t) (proc : Proc.t) (env : Envelope.t)
    (via : Events.via) ~first =
  (* a deferred fatal signal takes effect at syscall entry, before the
     call can park the process out of its reach *)
  match pending_terminal proc with
  | `Kill (s, status) ->
    proc.sigs.pending <- Signal.Mask.remove proc.sigs.pending s;
    Kstate.do_exit t proc status;
    Kstate.Killed
  | `Stop _ | `None ->
  (* decode-once: if any agent above already materialized the typed
     view, this is a memoized read, not a second decode *)
  match Envelope.call env with
  | Error e ->
    if first then Kstate.charge t Cost_model_base.trivial_us;
    Kstate.Done (Error e)
  | Ok call ->
    if first then begin
      let cost = base_cost via call in
      proc.stime_us <- proc.stime_us + cost;
      Kstate.charge t cost
    end;
    let outcome = Syscalls.dispatch t proc call in
    (match outcome with
     | Kstate.Done res -> Kstate.run_trace_hook t proc call res
     | Kstate.Block _ | Kstate.Exited | Kstate.Killed | Kstate.Exec _ -> ());
    outcome

let settle (t : Kstate.t) (proc : Proc.t) (env : Envelope.t)
    (via : Events.via) ~pre_mask k (outcome : Kstate.outcome) =
  match outcome with
  | Kstate.Done res -> finish_reply t proc k { Events.res; deliver = [] }
  | Kstate.Block cond ->
    let saved_mask =
      match cond with
      | Proc.On_signal -> Some pre_mask
      | Proc.On_child | Proc.On_pipe_read _ | Proc.On_pipe_write _
      | Proc.On_fifo_read _ | Proc.On_fifo_write _ | Proc.On_accept _
      | Proc.On_connq _ | Proc.On_time _ | Proc.On_select _ ->
        None
    in
    proc.state <- Proc.Parked { k; env; via; cond; saved_mask };
    (match cond with
     | Proc.On_child -> Kstate.sleep_on t (Kstate.K_child proc.pid) proc.pid
     | _ ->
       List.iter
         (fun key -> Kstate.sleep_on t key proc.pid)
         (keys_of_cond cond))
  | Kstate.Exited -> ()  (* _exit never returns: abandon the fibre *)
  | Kstate.Killed -> Kstate.discard k
  | Kstate.Exec spec -> start_exec t proc spec

(* A parked process re-attempts its call from the run queue: the same
   two halves, back to back, with the entry cost already paid. *)
let retry (t : Kstate.t) (proc : Proc.t) =
  match proc.state with
  | Proc.Parked park ->
    proc.state <- Proc.Runnable;
    Kstate.enqueue t (fun () ->
      if Kstate.runnable proc then
        let pre_mask = proc.sigs.mask in
        settle t proc park.env park.via ~pre_mask park.k
          (dispatch t proc park.env park.via ~first:false)
      else Kstate.discard park.k)
  | Proc.Runnable | Proc.Stopped _ | Proc.Zombie | Proc.Reaped -> ()
