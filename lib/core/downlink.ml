open Abi

(* The chain's jump target for slots with no captured handler: below
   the lowest agent sits the kernel. *)
let kernel_entry env = Kernel.Uspace.htg_trap env

type t = {
  chain : (Envelope.t -> Value.res) array;
      (* Maintained by [capture]: slot [n] is the captured closure
         itself, or [kernel_entry] when nothing is captured — [down]
         jumps through it with no option probe (DESIGN.md §3.8). *)
  mutable prev_sig : (int -> unit) option;
}

let create () =
  { chain = Array.make (Sysno.max_sysno + 1) kernel_entry; prev_sig = None }

let capture t ~numbers =
  List.iter
    (fun n ->
      if n >= 0 && n < Array.length t.chain then
        t.chain.(n) <-
          (match Kernel.Uspace.task_get_emulation n with
           | Some f -> f
           | None -> kernel_entry))
    numbers;
  t.prev_sig <- Kernel.Uspace.task_get_emulation_signal ()

let slot t n =
  if n >= 0 && n < Array.length t.chain then t.chain.(n) else kernel_entry

let captured_handler t n =
  let h = slot t n in
  if h == kernel_entry then None else Some h

let captured_signal t = t.prev_sig

let down t (env : Envelope.t) =
  Envelope.Stats.note_crossing ();
  (* One pre-linked jump per crossing.  Tracing-off runs also skip the
     layer-frame closure — [in_layer] with span <= 0 is the identity,
     so eliding it is exact. *)
  let target = slot t (Envelope.number env) in
  let span = Envelope.span env in
  if span <= 0 then target env
  else Obs.in_layer ~span "downlink" (fun () -> target env)

(* agent-originated calls ride a pooled envelope: taken from the
   calling process's record pool, released as soon as the lower layers
   return (an agent that stashes it must [Envelope.retain] it) *)
let down_call t c =
  Envelope.Stats.note_agent_call ();
  let epool =
    match Kernel.Proc.Cur.get () with
    | Some proc -> proc.Kernel.Proc.env_pool
    | None -> None
  in
  let env = Envelope.of_call ?epool c in
  let res = down t env in
  Envelope.release env;
  res

let down_signal t s = Kernel.Uspace.deliver_via t.prev_sig s
