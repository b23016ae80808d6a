(* The observability engine (DESIGN.md §3.2, sampling §3.4, shard
   ownership §3.6).

   A *span* covers one trap from `Uspace.syscall` entry to result
   delivery.  While a span is open, every layer that touches the trap —
   uspace, each stacked agent, downlink, the kernel handler — pushes a
   *frame*; on exit the frame becomes a `Span.segment` in the flight
   recorder and folds into the per-(depth, layer) aggregation.  Self
   time is total minus enclosed-frame time, so per-span self times sum
   exactly to the root frame's total.  Envelope decode/encode/rewrite
   events attribute to whichever frame is on top of their span's stack.

   Everything here is keyed by span id, never by "the current frame":
   fibres interleave at effect points, so several spans from different
   processes are routinely open at once.  The per-pid stack exists only
   to answer `current ()` — which span a freshly built envelope on this
   process belongs to.

   Sampling: with a 1-in-N sampler installed, the decision is made once
   per trap at `span_begin`, deterministically (a seeded `Sim.Rng`
   stream, one draw per trap).  An unsampled trap gets a *negative
   sentinel* id encoding its sysno: per-syscall call/error counts stay
   exact (counted at open / close against the sentinel), while frames,
   histograms, per-layer aggregation and the ring see only the sampled
   1-in-N subset — consumers scale those by `sample_n` from the metrics
   snapshot.

   Ownership: all engine state lives in an [engine] record.  Each
   kernel shard owns one; entering a shard installs its engine in the
   module-level [cur] pointer (the one allowlisted global here, the
   moral equivalent of a CPU's current-task register) so that code deep
   in the trap path — envelope codecs, agents, uspace — reaches the
   right engine without threading a handle through every signature.
   The engine also carries the shard's codec and record-pool counters
   ([counters], bumped by [Abi.Envelope]): abi sits above obs, so this
   cell is the one it can reach.  A default engine is installed at
   program start for engine-only use (tests drive spans with no kernel
   at all).

   Observation charges no *virtual* time: enabling tracing must not
   move any published µs number. *)

module Ring = Ring
module Hist = Hist
module Json = Json
module Span = Span
module Chrome = Chrome
module Causal = Causal
module Flame = Flame
module Stream = Stream
module Watch = Watch

(* ---------- live per-span state ---------- *)

type frame = {
  f_span : int;
  f_layer : string;
  f_depth : int;
  f_enter_us : int;
  mutable f_child_us : int;
  mutable f_decodes : int;
  mutable f_encodes : int;
  mutable f_rewrites : int;
}

type span_state = {
  s_id : int;
  s_pid : int;
  s_sysno : int;
  s_begin_us : int;
  mutable s_frames : frame list; (* innermost first *)
  mutable s_rewrites : int;
}

(* ---------- aggregation rows ---------- *)

type sys_agg = { mutable sa_calls : int; mutable sa_errors : int; sa_hist : Hist.t }

type layer_agg = {
  mutable la_traps : int;
  mutable la_decodes : int;
  mutable la_encodes : int;
  mutable la_rewrites : int;
  mutable la_self_us : int;
  mutable la_total_us : int;
  la_hist : Hist.t; (* per-frame self time *)
}

(* ---------- signature capture ---------- *)

(* One application-issued trap in the syscall-signature stream
   (conformance).  The errno outcome is patched in place when the trap
   completes; a trap that never returns to its instrumentation (exit,
   exec, an exception unwinding the fibre) keeps the pending sentinel,
   which serializes as a distinct "noreturn" outcome — deterministic,
   so two runs of the same workload agree on it. *)

type sig_event = {
  g_seq : int;
  g_pid : int;
  g_sysno : int;
  g_shape : string;
  mutable g_errno : int; (* sig_pending until patched; 0 = success *)
}

let sig_pending = -1

(* ---------- causal bookkeeping (DESIGN.md §3.9) ---------- *)

(* Per-pipe byte-offset watermarks.  Writes append absolute byte
   intervals stamped with the writing span; reads advance a consume
   watermark and emit one Pipe edge per distinct writer span whose
   interval the read overlapped.  Bounded by the pipe's unread bytes:
   fully consumed intervals are discarded as the watermark passes. *)
type pipe_chan = {
  mutable pc_wrote : int; (* absolute bytes ever written *)
  mutable pc_read : int;  (* absolute bytes ever consumed *)
  mutable pc_writes : (int * int * int * int) list;
      (* (start, stop, writer span, writer pid), oldest first *)
}

(* ---------- the engine ---------- *)

let default_ring_capacity = 4096

type counters = {
  mutable c_traps : int;
  mutable c_chained : int;
  mutable c_fast_path : int;
  mutable c_decodes : int;
  mutable c_encodes : int;
  mutable c_crossings : int;
  mutable c_agent_calls : int;
  mutable c_suspends : int;
  mutable c_pool_hits : int;
  mutable c_pool_misses : int;
  mutable c_pool_recycled : int;
  mutable c_pool_dropped : int;
}

type engine = {
  mutable e_on : bool;
  mutable e_clock_fn : unit -> int;
  mutable e_context_fn : unit -> int;
  mutable e_sample_n : int;
  mutable e_sample_seed : int;
  mutable e_sample_rng : Sim.Rng.t;
  e_spans : (int, span_state) Hashtbl.t;
  e_open_by_pid : (int, int list ref) Hashtbl.t;
  mutable e_next_span : int;
  mutable e_ring_capacity : int;
  mutable e_ring : Span.record Ring.t;
  e_by_sysno : (int, sys_agg) Hashtbl.t;
  e_by_layer : (int * string, layer_agg) Hashtbl.t;
  mutable e_completed : int;
  mutable e_aborted : int;
  mutable e_injected : int;
  (* signature capture: a configuration switch (copied by [engine_like]
     so the configure-then-create order works) plus the captured event
     stream, newest first.  Capture is independent of the sampler — a
     signature is a record of what the application observed, not a
     latency sample — so counts stay exact at any 1-in-N rate. *)
  mutable e_sig_on : bool;
  mutable e_sig_rev : sig_event list;
  mutable e_sig_n : int;
  (* causal edge table (DESIGN.md §3.9): which shard this engine
     belongs to (stamped into every edge it records), the edges
     themselves (newest first), the emission counter that orders them
     under the cluster merge rule, and the pending half-edges — forks
     waiting for the child's first span, kill-originated signals
     waiting for delivery, pipe byte watermarks waiting for a read.
     Like signature capture, edges are events of record, not latency
     samples; endpoints the sampler skipped carry their sentinel and
     drop out of slice/flow views. *)
  mutable e_shard : int;
  mutable e_causal_rev : Causal.edge list;
  mutable e_causal_n : int;
  e_pending_fork : (int, int * int) Hashtbl.t;
      (* child pid -> (src span, src pid) *)
  e_pending_sig : (int * int, (int * int * int) Queue.t) Hashtbl.t;
      (* (dst pid, signal) -> (src shard, src span, src pid) fifo *)
  e_pipes : (string * int, pipe_chan) Hashtbl.t;
      (* ("pipe"|"fifo", id) -> watermarks *)
  e_counters : counters;
      (* never cleared by [reset]: snapshot diffs span obs resets *)
}

let engine ?(ring_capacity = default_ring_capacity) () =
  {
    e_on = false;
    e_clock_fn = (fun () -> 0);
    e_context_fn = (fun () -> 0);
    e_sample_n = 1;
    e_sample_seed = 0;
    e_sample_rng = Sim.Rng.create 0;
    e_spans = Hashtbl.create 64;
    e_open_by_pid = Hashtbl.create 16;
    e_next_span = 0;
    e_ring_capacity = ring_capacity;
    e_ring = Ring.create ~capacity:ring_capacity;
    e_by_sysno = Hashtbl.create 64;
    e_by_layer = Hashtbl.create 32;
    e_completed = 0;
    e_aborted = 0;
    e_injected = 0;
    e_sig_on = false;
    e_sig_rev = [];
    e_sig_n = 0;
    e_shard = 0;
    e_causal_rev = [];
    e_causal_n = 0;
    e_pending_fork = Hashtbl.create 16;
    e_pending_sig = Hashtbl.create 16;
    e_pipes = Hashtbl.create 16;
    e_counters =
      { c_traps = 0; c_chained = 0; c_fast_path = 0; c_decodes = 0;
        c_encodes = 0; c_crossings = 0; c_agent_calls = 0; c_suspends = 0;
        c_pool_hits = 0; c_pool_misses = 0; c_pool_recycled = 0;
        c_pool_dropped = 0 };
  }

(* A fresh engine carrying the *configuration* of [src] — on/off
   switch, sampling rate and seed (decision stream restarted), ring
   capacity — but none of its data, counters included.
   [Kernel.create] builds each shard's engine this way from the
   currently installed one, so the established "configure observation,
   then create the kernel" call order keeps working across the
   per-shard ownership change. *)
let engine_like src =
  let e = engine ~ring_capacity:src.e_ring_capacity () in
  e.e_on <- src.e_on;
  e.e_sample_n <- src.e_sample_n;
  e.e_sample_seed <- src.e_sample_seed;
  e.e_sample_rng <- Sim.Rng.create src.e_sample_seed;
  e.e_sig_on <- src.e_sig_on;
  e

(* The installed (current-shard) engine: the single allowlisted piece
   of module-level state in this library.  Everything below operates on
   [!cur]. *)
let cur : engine ref = ref (engine ())

let install e = cur := e
let installed () = !cur

let with_engine e f =
  let prev = !cur in
  cur := e;
  Fun.protect ~finally:(fun () -> cur := prev) f

(* ---------- switches and environment hooks ---------- *)

let counters_of e = e.e_counters
let counters () = !cur.e_counters

let set_clock f = !cur.e_clock_fn <- f
let set_context f = !cur.e_context_fn <- f
let now_us () = !cur.e_clock_fn ()
let current_pid () = !cur.e_context_fn ()

let enabled () = !cur.e_on
let enable () = !cur.e_on <- true
let disable () = !cur.e_on <- false

(* ---------- sampling ---------- *)

let set_sampling ?(seed = 0) n =
  let e = !cur in
  let n = max 1 n in
  e.e_sample_n <- n;
  e.e_sample_seed <- seed;
  e.e_sample_rng <- Sim.Rng.create seed

let sampling () = !cur.e_sample_n

(* ---------- flight recorder ---------- *)

let configure ?(ring_capacity = default_ring_capacity) () =
  let e = !cur in
  e.e_ring_capacity <- ring_capacity;
  e.e_ring <- Ring.create ~capacity:ring_capacity

(* ---------- aggregation ---------- *)

let sys_agg_for e sysno =
  match Hashtbl.find_opt e.e_by_sysno sysno with
  | Some a -> a
  | None ->
    let a = { sa_calls = 0; sa_errors = 0; sa_hist = Hist.create () } in
    Hashtbl.replace e.e_by_sysno sysno a;
    a

let layer_agg_for e key =
  match Hashtbl.find_opt e.e_by_layer key with
  | Some a -> a
  | None ->
    let a =
      { la_traps = 0; la_decodes = 0; la_encodes = 0; la_rewrites = 0;
        la_self_us = 0; la_total_us = 0; la_hist = Hist.create () }
    in
    Hashtbl.replace e.e_by_layer key a;
    a

(* Faults deliberately injected by agents (faultinject and friends):
   counted exactly whenever the engine is on, independent of the
   sampler — an injected fault is an event of record, not a latency
   sample. *)
let note_injected () =
  let e = !cur in
  if e.e_on then e.e_injected <- e.e_injected + 1

(* ---------- signature capture (conformance) ---------- *)

let sig_capture on =
  let e = !cur in
  e.e_sig_on <- on

let sig_capturing () =
  let e = !cur in
  e.e_on && e.e_sig_on

(* Called by [Uspace.instrumented] only — the application-issued trap
   stream.  Agent-originated calls descend through the htg entry points
   and never reach this, so the capture is exactly the interface the
   application observes.  Like [note_injected], the sampler does not
   apply: signature counts are exact at any rate. *)
let sig_note ~pid ~sysno shape =
  let e = !cur in
  e.e_sig_n <- e.e_sig_n + 1;
  let ev =
    { g_seq = e.e_sig_n; g_pid = pid; g_sysno = sysno; g_shape = shape;
      g_errno = sig_pending }
  in
  e.e_sig_rev <- ev :: e.e_sig_rev;
  ev

let sig_done ev ~errno = ev.g_errno <- errno

let sig_events_of e = List.rev e.e_sig_rev
let sig_events () = sig_events_of !cur

let sig_clear () =
  let e = !cur in
  e.e_sig_rev <- [];
  e.e_sig_n <- 0

let reset () =
  let e = !cur in
  Hashtbl.reset e.e_spans;
  Hashtbl.reset e.e_open_by_pid;
  Hashtbl.reset e.e_by_sysno;
  Hashtbl.reset e.e_by_layer;
  e.e_next_span <- 0;
  e.e_completed <- 0;
  e.e_aborted <- 0;
  e.e_injected <- 0;
  e.e_sig_rev <- [];
  e.e_sig_n <- 0;
  e.e_causal_rev <- [];
  e.e_causal_n <- 0;
  Hashtbl.reset e.e_pending_fork;
  Hashtbl.reset e.e_pending_sig;
  Hashtbl.reset e.e_pipes;
  (* keep the configured rate but restart the decision stream, so a
     reset window replays the same sampling choices *)
  e.e_sample_rng <- Sim.Rng.create e.e_sample_seed;
  Ring.clear e.e_ring

(* ---------- causal edges (DESIGN.md §3.9) ---------- *)

let set_shard i = !cur.e_shard <- i
let shard () = !cur.e_shard

(* Innermost open span of [pid] — [current ()] without the ambient
   context: the causal hooks run inside the kernel dispatcher, where
   the current-process register is cleared, but they know the pid. *)
let innermost e pid =
  match Hashtbl.find_opt e.e_open_by_pid pid with
  | Some { contents = s :: _ } -> s
  | _ -> 0

let emit_edge e ~kind ~src_shard ~src_span ~src_pid ~dst_span ~dst_pid ~detail =
  e.e_causal_n <- e.e_causal_n + 1;
  e.e_causal_rev <-
    {
      Causal.ed_kind = kind;
      ed_src_shard = src_shard;
      ed_src_span = src_span;
      ed_src_pid = src_pid;
      ed_shard = e.e_shard;
      ed_dst_span = dst_span;
      ed_dst_pid = dst_pid;
      ed_t_us = e.e_clock_fn ();
      ed_seq = e.e_causal_n;
      ed_detail = detail;
    }
    :: e.e_causal_rev

(* Fork: the parent's fork trap is still open when the kernel clones
   the process; the edge completes at the child's first span_begin. *)
let causal_fork ~parent ~child =
  let e = !cur in
  if e.e_on then
    Hashtbl.replace e.e_pending_fork child (innermost e parent, parent)

(* Signals: only kill-originated signals make edges (an alarm or a
   kernel-raised SIGPIPE has no sender span).  The sender side files a
   pending half-edge; delivery into the receiver's current trap
   completes it.  Dispositions that never deliver to the application
   (ignore, terminate) leave the half-edge pending, harmlessly. *)
let causal_signal_send ~src_pid ~dst_pid ~signal =
  let e = !cur in
  if e.e_on then begin
    let q =
      match Hashtbl.find_opt e.e_pending_sig (dst_pid, signal) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace e.e_pending_sig (dst_pid, signal) q;
        q
    in
    Queue.push (e.e_shard, innermost e src_pid, src_pid) q
  end

(* Cross-shard variant: runs on the *destination* shard's engine with
   the origin captured on the source shard ([causal_origin]) and
   shipped with the cluster mail. *)
let causal_signal_send_remote ~src_shard ~src_span ~src_pid ~dst_pid ~signal =
  let e = !cur in
  if e.e_on then begin
    let q =
      match Hashtbl.find_opt e.e_pending_sig (dst_pid, signal) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace e.e_pending_sig (dst_pid, signal) q;
        q
    in
    Queue.push (src_shard, src_span, src_pid) q
  end

(* (shard, innermost span, pid) of the ambient process — what
   [Cluster.send] stamps into cross-shard mail on the source shard. *)
let causal_origin () =
  let e = !cur in
  let pid = e.e_context_fn () in
  (e.e_shard, (if e.e_on then innermost e pid else 0), pid)

let causal_signal_delivered ~pid ~signal ~span ~detail =
  let e = !cur in
  if e.e_on then
    match Hashtbl.find_opt e.e_pending_sig (pid, signal) with
    | Some q when not (Queue.is_empty q) ->
      let src_shard, src_span, src_pid = Queue.pop q in
      emit_edge e ~kind:Causal.Signal ~src_shard ~src_span ~src_pid
        ~dst_span:span ~dst_pid:pid ~detail
    | _ -> ()

let pipe_chan_for e key =
  match Hashtbl.find_opt e.e_pipes key with
  | Some c -> c
  | None ->
    let c = { pc_wrote = 0; pc_read = 0; pc_writes = [] } in
    Hashtbl.replace e.e_pipes key c;
    c

let causal_pipe_write ~chan ~pid ~bytes =
  let e = !cur in
  if e.e_on && bytes > 0 then begin
    let c = pipe_chan_for e chan in
    let span = innermost e pid in
    c.pc_writes <- c.pc_writes @ [ (c.pc_wrote, c.pc_wrote + bytes, span, pid) ];
    c.pc_wrote <- c.pc_wrote + bytes
  end

let causal_pipe_read ~chan ~pid ~bytes =
  let e = !cur in
  if e.e_on && bytes > 0 then begin
    let c = pipe_chan_for e chan in
    let lo = c.pc_read in
    let hi = lo + bytes in
    c.pc_read <- hi;
    let dst_span = innermost e pid in
    (* one edge per distinct writer span this read consumed from *)
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
    let rec consume = function
      | [] -> []
      | ((s, t, wspan, wpid) as iv) :: tl ->
        if t <= lo then consume tl (* fully consumed by earlier reads *)
        else if s >= hi then iv :: tl (* past this read's window *)
        else begin
          if not (Hashtbl.mem seen (wspan, wpid)) then begin
            Hashtbl.replace seen (wspan, wpid) ();
            let o_lo = max s lo and o_hi = min t hi in
            emit_edge e ~kind:Causal.Pipe ~src_shard:e.e_shard ~src_span:wspan
              ~src_pid:wpid ~dst_span ~dst_pid:pid
              ~detail:
                (Printf.sprintf "%s#%d bytes %d..%d" (fst chan) (snd chan)
                   o_lo o_hi)
          end;
          if t <= hi then consume tl else iv :: tl
        end
    in
    c.pc_writes <- consume c.pc_writes
  end

let causal_edges_of e = List.rev e.e_causal_rev
let causal_edges () = causal_edges_of !cur

let causal_drain_of e =
  let l = List.rev e.e_causal_rev in
  e.e_causal_rev <- [];
  l

let causal_drain () = causal_drain_of !cur

(* ---------- streaming ---------- *)

let poll_of e c = Stream.poll c e.e_ring
let poll c = poll_of !cur c

(* ---------- span lifecycle ---------- *)

let current () =
  let e = !cur in
  if not e.e_on then 0
  else
    match Hashtbl.find_opt e.e_open_by_pid (e.e_context_fn ()) with
    | Some { contents = s :: _ } -> s
    | _ -> 0

(* Unsampled traps are represented by a negative sentinel carrying the
   sysno, so their close can still count errors exactly without any
   span state having been allocated. *)
let unsampled_sentinel sysno = -(sysno + 1)
let sentinel_sysno span = -span - 1

let span_begin ~pid ~sysno =
  let e = !cur in
  if not e.e_on then 0
  else begin
    (* calls are counted at open — exact whatever the sampling rate,
       and whether or not the trap later aborts *)
    let agg = sys_agg_for e sysno in
    agg.sa_calls <- agg.sa_calls + 1;
    let sampled =
      e.e_sample_n <= 1 || Sim.Rng.int e.e_sample_rng e.e_sample_n = 0
    in
    let id =
      if not sampled then unsampled_sentinel sysno
      else begin
        e.e_next_span <- e.e_next_span + 1;
        let id = e.e_next_span in
        Hashtbl.replace e.e_spans id
          { s_id = id; s_pid = pid; s_sysno = sysno;
            s_begin_us = e.e_clock_fn (); s_frames = []; s_rewrites = 0 };
        (match Hashtbl.find_opt e.e_open_by_pid pid with
         | Some stack -> stack := id :: !stack
         | None -> Hashtbl.replace e.e_open_by_pid pid (ref [ id ]));
        id
      end
    in
    (* a pending fork half-edge completes at the child's first trap,
       sampled or not — an unsampled first trap yields a sentinel
       endpoint, which slice/flow views skip *)
    (match Hashtbl.find_opt e.e_pending_fork pid with
     | Some (src_span, src_pid) ->
       Hashtbl.remove e.e_pending_fork pid;
       emit_edge e ~kind:Causal.Fork ~src_shard:e.e_shard ~src_span ~src_pid
         ~dst_span:id ~dst_pid:pid ~detail:""
     | None -> ());
    id
  end

(* Pop the top frame, fold its duration into the parent's child time,
   and publish it as a segment. *)
let close_top e st ~now =
  match st.s_frames with
  | [] -> ()
  | fr :: rest ->
    st.s_frames <- rest;
    let total = now - fr.f_enter_us in
    let self = total - fr.f_child_us in
    (match rest with
     | parent :: _ -> parent.f_child_us <- parent.f_child_us + total
     | [] -> ());
    Ring.push e.e_ring
      (Span.Segment
         {
           Span.span = st.s_id;
           pid = st.s_pid;
           sysno = st.s_sysno;
           layer = fr.f_layer;
           depth = fr.f_depth;
           start_us = fr.f_enter_us;
           self_us = self;
           total_us = total;
           decodes = fr.f_decodes;
           encodes = fr.f_encodes;
           rewrites = fr.f_rewrites;
         });
    let agg = layer_agg_for e (fr.f_depth, fr.f_layer) in
    agg.la_traps <- agg.la_traps + 1;
    agg.la_decodes <- agg.la_decodes + fr.f_decodes;
    agg.la_encodes <- agg.la_encodes + fr.f_encodes;
    agg.la_rewrites <- agg.la_rewrites + fr.f_rewrites;
    agg.la_self_us <- agg.la_self_us + self;
    agg.la_total_us <- agg.la_total_us + total;
    Hist.observe agg.la_hist self

let layer_enter ~span layer =
  if span <= 0 then None
  else
    let e = !cur in
    match Hashtbl.find_opt e.e_spans span with
    | None -> None (* span already ended/aborted: record nothing *)
    | Some st ->
      let fr =
        {
          f_span = span;
          f_layer = layer;
          f_depth = List.length st.s_frames;
          f_enter_us = e.e_clock_fn ();
          f_child_us = 0;
          f_decodes = 0;
          f_encodes = 0;
          f_rewrites = 0;
        }
      in
      st.s_frames <- fr :: st.s_frames;
      Some fr

let layer_exit fr =
  let e = !cur in
  match Hashtbl.find_opt e.e_spans fr.f_span with
  | None -> () (* span aborted underneath us *)
  | Some st ->
    if List.memq fr st.s_frames then begin
      let now = e.e_clock_fn () in
      (* close any younger frames an exception skipped over first *)
      let rec loop () =
        match st.s_frames with
        | top :: _ ->
          close_top e st ~now;
          if not (top == fr) then loop ()
        | [] -> ()
      in
      loop ()
    end

let in_layer ~span layer f =
  match layer_enter ~span layer with
  | None -> f ()
  | Some fr ->
    (match f () with
     | v ->
       layer_exit fr;
       v
     | exception e ->
       layer_exit fr;
       raise e)

let finish_span e st ~error ~was_aborted =
  let now = e.e_clock_fn () in
  while st.s_frames <> [] do
    close_top e st ~now
  done;
  Hashtbl.remove e.e_spans st.s_id;
  (match Hashtbl.find_opt e.e_open_by_pid st.s_pid with
   | Some stack ->
     stack := List.filter (fun id -> id <> st.s_id) !stack;
     if !stack = [] then Hashtbl.remove e.e_open_by_pid st.s_pid
   | None -> ());
  let agg = sys_agg_for e st.s_sysno in
  (* sa_calls was counted at span_begin; only errors and the (sampled)
     latency histogram fold in here *)
  if error then agg.sa_errors <- agg.sa_errors + 1;
  Hist.observe agg.sa_hist (now - st.s_begin_us);
  if was_aborted then begin
    e.e_aborted <- e.e_aborted + 1;
    Ring.push e.e_ring
      (Span.Mark
         { Span.m_span = st.s_id; m_pid = st.s_pid; m_t_us = now;
           m_kind = "abort"; m_detail = string_of_int st.s_sysno })
  end
  else e.e_completed <- e.e_completed + 1

let span_end span ~error =
  let e = !cur in
  if span > 0 then
    match Hashtbl.find_opt e.e_spans span with
    | Some st -> finish_span e st ~error ~was_aborted:false
    | None -> ()
  else if span < 0 && error then begin
    (* unsampled trap: errors stay exact via the sysno sentinel *)
    let agg = sys_agg_for e (sentinel_sysno span) in
    agg.sa_errors <- agg.sa_errors + 1
  end

let abort_pid pid =
  let e = !cur in
  match Hashtbl.find_opt e.e_open_by_pid pid with
  | None -> ()
  | Some stack ->
    let ids = !stack in
    List.iter
      (fun id ->
        match Hashtbl.find_opt e.e_spans id with
        | Some st -> finish_span e st ~error:false ~was_aborted:true
        | None -> ())
      ids

(* ---------- codec and rewrite attribution ---------- *)

let note_decode span =
  if span > 0 then
    match Hashtbl.find_opt !cur.e_spans span with
    | Some { s_frames = fr :: _; _ } -> fr.f_decodes <- fr.f_decodes + 1
    | _ -> ()

let note_encode span =
  if span > 0 then
    match Hashtbl.find_opt !cur.e_spans span with
    | Some { s_frames = fr :: _; _ } -> fr.f_encodes <- fr.f_encodes + 1
    | _ -> ()

let note_rewrite span =
  if span > 0 then
    match Hashtbl.find_opt !cur.e_spans span with
    | Some st ->
      st.s_rewrites <- st.s_rewrites + 1;
      (match st.s_frames with
       | fr :: _ -> fr.f_rewrites <- fr.f_rewrites + 1
       | [] -> ())
    | None -> ()

let span_rewrites span =
  if span <= 0 then 0
  else
    match Hashtbl.find_opt !cur.e_spans span with
    | Some st -> st.s_rewrites
    | None -> 0

(* ---------- trace-agent records and marks ---------- *)

let record_call c =
  let e = !cur in
  if e.e_on then Ring.push e.e_ring (Span.Call c)

let record_mark ?(span = 0) ?pid ~kind ~detail () =
  let e = !cur in
  if e.e_on then begin
    let pid = match pid with Some p -> p | None -> e.e_context_fn () in
    Ring.push e.e_ring
      (Span.Mark
         { Span.m_span = span; m_pid = pid; m_t_us = e.e_clock_fn ();
           m_kind = kind; m_detail = detail })
  end

(* ---------- reading the recorder ---------- *)

let records_of e = Ring.to_list e.e_ring
let drain_of e = Ring.drain e.e_ring

let records () = records_of !cur
let drain () = drain_of !cur
let dropped () = Ring.dropped !cur.e_ring

let segments () =
  List.filter_map
    (function Span.Segment s -> Some s | Span.Call _ | Span.Mark _ -> None)
    (records ())

(* ---------- metrics snapshot ---------- *)

type syscall_metrics = {
  sm_sysno : int;
  sm_calls : int;
  sm_errors : int;
  sm_hist : Hist.t;
}

type layer_metrics = {
  lm_depth : int;
  lm_layer : string;
  lm_traps : int;
  lm_decodes : int;
  lm_encodes : int;
  lm_rewrites : int;
  lm_self_us : int;
  lm_total_us : int;
  lm_hist : Hist.t;
}

type metrics = {
  m_spans : int;
  m_aborted : int;
  m_injected : int;
  m_open : int;
  m_dropped : int;
  m_sample_n : int;
  m_syscalls : syscall_metrics list;
  m_layers : layer_metrics list;
}

let metrics_of e =
  let syscalls =
    Hashtbl.fold
      (fun sysno a acc ->
        { sm_sysno = sysno; sm_calls = a.sa_calls; sm_errors = a.sa_errors;
          sm_hist = Hist.copy a.sa_hist }
        :: acc)
      e.e_by_sysno []
    |> List.sort (fun a b -> compare a.sm_sysno b.sm_sysno)
  in
  let layers =
    Hashtbl.fold
      (fun (depth, layer) a acc ->
        { lm_depth = depth; lm_layer = layer; lm_traps = a.la_traps;
          lm_decodes = a.la_decodes; lm_encodes = a.la_encodes;
          lm_rewrites = a.la_rewrites; lm_self_us = a.la_self_us;
          lm_total_us = a.la_total_us; lm_hist = Hist.copy a.la_hist }
        :: acc)
      e.e_by_layer []
    |> List.sort (fun a b -> compare (a.lm_depth, a.lm_layer) (b.lm_depth, b.lm_layer))
  in
  {
    m_spans = e.e_completed;
    m_aborted = e.e_aborted;
    m_injected = e.e_injected;
    m_open = Hashtbl.length e.e_spans;
    m_dropped = Ring.dropped e.e_ring;
    m_sample_n = e.e_sample_n;
    m_syscalls = syscalls;
    m_layers = layers;
  }

let metrics () = metrics_of !cur

(* Cross-shard aggregation: exact counters add, histograms merge
   bucket-wise (into fresh copies — the inputs are snapshots and stay
   untouched), so a cluster total has the same exact/sampled split as
   any single engine's snapshot.  Shards share their sampling rate by
   construction ([engine_like] copies it); should they ever differ,
   the most-thinned rate is reported so estimates stay conservative. *)
let merge_metrics (ms : metrics list) =
  let sys : (int, syscall_metrics) Hashtbl.t = Hashtbl.create 32 in
  let lay : (int * string, layer_metrics) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun m ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt sys s.sm_sysno with
          | None ->
            Hashtbl.replace sys s.sm_sysno
              { s with sm_hist = Hist.copy s.sm_hist }
          | Some acc ->
            Hist.merge ~into:acc.sm_hist s.sm_hist;
            Hashtbl.replace sys s.sm_sysno
              { acc with
                sm_calls = acc.sm_calls + s.sm_calls;
                sm_errors = acc.sm_errors + s.sm_errors })
        m.m_syscalls;
      List.iter
        (fun l ->
          let key = (l.lm_depth, l.lm_layer) in
          match Hashtbl.find_opt lay key with
          | None ->
            Hashtbl.replace lay key { l with lm_hist = Hist.copy l.lm_hist }
          | Some acc ->
            Hist.merge ~into:acc.lm_hist l.lm_hist;
            Hashtbl.replace lay key
              { acc with
                lm_traps = acc.lm_traps + l.lm_traps;
                lm_decodes = acc.lm_decodes + l.lm_decodes;
                lm_encodes = acc.lm_encodes + l.lm_encodes;
                lm_rewrites = acc.lm_rewrites + l.lm_rewrites;
                lm_self_us = acc.lm_self_us + l.lm_self_us;
                lm_total_us = acc.lm_total_us + l.lm_total_us })
        m.m_layers)
    ms;
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  {
    m_spans = sum (fun m -> m.m_spans);
    m_aborted = sum (fun m -> m.m_aborted);
    m_injected = sum (fun m -> m.m_injected);
    m_open = sum (fun m -> m.m_open);
    m_dropped = sum (fun m -> m.m_dropped);
    m_sample_n = List.fold_left (fun acc m -> max acc m.m_sample_n) 1 ms;
    m_syscalls =
      Hashtbl.fold (fun _ s acc -> s :: acc) sys []
      |> List.sort (fun a b -> compare a.sm_sysno b.sm_sysno);
    m_layers =
      Hashtbl.fold (fun _ l acc -> l :: acc) lay []
      |> List.sort (fun a b ->
           compare (a.lm_depth, a.lm_layer) (b.lm_depth, b.lm_layer));
  }

(* Exact vs estimated (DESIGN.md §3.4): per-syscall [calls]/[errors]
   are exact at any sampling rate; everything derived from spans the
   sampler kept — latency histograms, percentiles, span/abort counts,
   per-layer traps and µs sums — covers the 1-in-N subset and is
   reported raw, with the rate in ["sample_n"] and pre-scaled ["est_*"]
   companions emitted when N > 1. *)
let metrics_to_json ?(name = fun n -> Printf.sprintf "syscall#%d" n) (m : metrics) =
  let scale = m.m_sample_n in
  let est fields =
    if scale <= 1 then []
    else List.map (fun (k, v) -> ("est_" ^ k, Json.Int (v * scale))) fields
  in
  let hist_json h =
    Json.Obj
      ([
         ("count", Json.Int (Hist.count h));
         ("sum_us", Json.Int (Hist.sum_us h));
         ("max_us", Json.Int (Hist.max_us h));
         ("p50_us", Json.Int (Hist.quantile h 0.50));
         ("p90_us", Json.Int (Hist.quantile h 0.90));
         ("p99_us", Json.Int (Hist.quantile h 0.99));
       ]
      @ est [ ("count", Hist.count h); ("sum_us", Hist.sum_us h) ]
      @ [
          ( "buckets",
            Json.Arr
              (List.map
                 (fun (i, n) ->
                   Json.Obj
                     [ ("lo_us", Json.Int (Hist.lower_bound i)); ("count", Json.Int n) ])
                 (Hist.nonzero h)) );
        ])
  in
  Json.Obj
    ([
       ("spans", Json.Int m.m_spans);
       ("aborted", Json.Int m.m_aborted);
       ("injected", Json.Int m.m_injected);
       ("open", Json.Int m.m_open);
       ("dropped", Json.Int m.m_dropped);
       ("sample_n", Json.Int m.m_sample_n);
     ]
    @ est [ ("spans", m.m_spans); ("aborted", m.m_aborted) ]
    @ [
        ( "syscalls",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("sysno", Json.Int s.sm_sysno);
                     ("name", Json.Str (name s.sm_sysno));
                     ("calls", Json.Int s.sm_calls);
                     ("errors", Json.Int s.sm_errors);
                     ("latency", hist_json s.sm_hist);
                   ])
               m.m_syscalls) );
        ( "layers",
          Json.Arr
            (List.map
               (fun l ->
                 Json.Obj
                   ([
                      ("depth", Json.Int l.lm_depth);
                      ("layer", Json.Str l.lm_layer);
                      ("traps", Json.Int l.lm_traps);
                      ("decodes", Json.Int l.lm_decodes);
                      ("encodes", Json.Int l.lm_encodes);
                      ("rewrites", Json.Int l.lm_rewrites);
                      ("self_us", Json.Int l.lm_self_us);
                      ("total_us", Json.Int l.lm_total_us);
                      ("p50_self_us", Json.Int (Hist.quantile l.lm_hist 0.50));
                      ("p90_self_us", Json.Int (Hist.quantile l.lm_hist 0.90));
                      ("p99_self_us", Json.Int (Hist.quantile l.lm_hist 0.99));
                    ]
                   @ est
                       [ ("traps", l.lm_traps); ("self_us", l.lm_self_us);
                         ("total_us", l.lm_total_us) ]))
               m.m_layers) );
      ])
