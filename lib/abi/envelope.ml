(* Decode-once call envelopes: the wire vector and its typed decoding
   travel the stack together, each materialized at most once. *)

module Stats = struct
  type snapshot = {
    traps : int;
    chained : int;
    fast_path : int;
    decodes : int;
    encodes : int;
    crossings : int;
    agent_calls : int;
    suspends : int;
  }

  type pool_snapshot = {
    hits : int;      (* takes served from the free list *)
    misses : int;    (* takes that fell back to allocation *)
    recycled : int;  (* records returned for reuse *)
    dropped : int;   (* returns rejected by a full pool *)
  }

  (* The live counter set of one kernel shard (DESIGN.md §3.6): codec
     work plus the record pools of every process in the shard.  It
     lives on the shard's obs engine, so entering a shard installs it
     with the engine; envelopes and pools bump whichever set is
     installed.  The default engine's set exists from program start so
     envelopes work outside any kernel. *)
  type t = Obs.counters

  let installed = Obs.counters

  let snapshot_of (c : t) =
    {
      traps = c.c_traps;
      chained = c.c_chained;
      fast_path = c.c_fast_path;
      decodes = c.c_decodes;
      encodes = c.c_encodes;
      crossings = c.c_crossings;
      agent_calls = c.c_agent_calls;
      suspends = c.c_suspends;
    }

  let reset_of (c : t) =
    c.c_traps <- 0;
    c.c_chained <- 0;
    c.c_fast_path <- 0;
    c.c_decodes <- 0;
    c.c_encodes <- 0;
    c.c_crossings <- 0;
    c.c_agent_calls <- 0;
    c.c_suspends <- 0;
    c.c_pool_hits <- 0;
    c.c_pool_misses <- 0;
    c.c_pool_recycled <- 0;
    c.c_pool_dropped <- 0

  let diff before after =
    {
      traps = after.traps - before.traps;
      chained = after.chained - before.chained;
      fast_path = after.fast_path - before.fast_path;
      decodes = after.decodes - before.decodes;
      encodes = after.encodes - before.encodes;
      crossings = after.crossings - before.crossings;
      agent_calls = after.agent_calls - before.agent_calls;
      suspends = after.suspends - before.suspends;
    }

  let pp fmt s =
    Format.fprintf fmt
      "traps=%d chained=%d fast_path=%d decodes=%d encodes=%d \
       crossings=%d agent_calls=%d suspends=%d"
      s.traps s.chained s.fast_path s.decodes s.encodes
      s.crossings s.agent_calls s.suspends

  let to_json s =
    Obs.Json.Obj
      [
        ("traps", Obs.Json.Int s.traps);
        ("chained", Obs.Json.Int s.chained);
        ("fast_path", Obs.Json.Int s.fast_path);
        ("decodes", Obs.Json.Int s.decodes);
        ("encodes", Obs.Json.Int s.encodes);
        ("crossings", Obs.Json.Int s.crossings);
        ("agent_calls", Obs.Json.Int s.agent_calls);
        ("suspends", Obs.Json.Int s.suspends);
      ]

  let pool_snapshot_of (c : t) =
    { hits = c.c_pool_hits; misses = c.c_pool_misses;
      recycled = c.c_pool_recycled; dropped = c.c_pool_dropped }

  let pool_diff before after =
    { hits = after.hits - before.hits;
      misses = after.misses - before.misses;
      recycled = after.recycled - before.recycled;
      dropped = after.dropped - before.dropped }

  let pool_to_json s =
    Obs.Json.Obj
      [ ("hits", Obs.Json.Int s.hits);
        ("misses", Obs.Json.Int s.misses);
        ("recycled", Obs.Json.Int s.recycled);
        ("dropped", Obs.Json.Int s.dropped) ]

  let note_trap_chained () =
    let c = installed () in
    c.c_traps <- c.c_traps + 1;
    c.c_chained <- c.c_chained + 1

  let note_trap_fast () =
    let c = installed () in
    c.c_traps <- c.c_traps + 1;
    c.c_fast_path <- c.c_fast_path + 1

  let note_crossing () =
    let c = installed () in
    c.c_crossings <- c.c_crossings + 1

  let note_agent_call () =
    let c = installed () in
    c.c_agent_calls <- c.c_agent_calls + 1

  let note_suspend () =
    let c = installed () in
    c.c_suspends <- c.c_suspends + 1

  let note_decode () =
    let c = installed () in
    c.c_decodes <- c.c_decodes + 1

  let note_encode () =
    let c = installed () in
    c.c_encodes <- c.c_encodes + 1
end

type view =
  | Undecoded
  | Typed of Call.t
  | Undecodable of Errno.t

type t = {
  mutable num : int;
      (* Mutable only so a pooled record can be refilled in place; no
         code path changes the number of a live envelope. *)
  mutable wire : Value.wire option;
      (* [None] while the [Typed] view is authoritative but not yet
         (re-)encoded — i.e. the dirty state. *)
  mutable view : view;
  mutable span : int;
      (* Obs span this envelope's codec work attributes to; 0 when
         tracing is off or the envelope is born outside any trap. *)
  mutable ehome : epool option;
      (* The pool the record came from, when [at_boundary]/[of_call]
         took it from one; cleared by [release] so a record recycles at
         most once. *)
}

(* The record pool lives in the same recursive knot as [t] (a record
   points back at its home pool), so the module below is mostly a
   veneer over this representation. *)
and epool = {
  estack : t array;
  mutable elen : int;
}

(* Per-process free lists of envelope records, so a trap does not
   allocate the record around its wire.  A record goes back on
   [release], when its trap returns; every recycled record is scrubbed
   so a stale view, wire or span cannot leak into the next trap or pin
   dead objects against the GC.  The wire itself is immutable and
   never recycled, so a layer that kept it loses nothing. *)
module Pool = struct
  type nonrec t = epool

  let capacity = 64

  let blank () =
    { num = 0; wire = None; view = Undecoded; span = 0; ehome = None }

  let dummy = blank ()

  (* Array-backed stack rather than a list: a warm take/recycle pair
     must allocate nothing at all. *)
  let create () = { estack = Array.make capacity dummy; elen = 0 }

  let size p = p.elen

  (* Invariant: every record on the free list is scrubbed (the state
     [blank] builds), so [take] only refills the fields the new trap
     needs. *)
  let take p =
    let c = Stats.installed () in
    if p.elen = 0 then begin
      c.c_pool_misses <- c.c_pool_misses + 1;
      blank ()
    end
    else begin
      p.elen <- p.elen - 1;
      let e = p.estack.(p.elen) in
      p.estack.(p.elen) <- dummy;
      c.c_pool_hits <- c.c_pool_hits + 1;
      e
    end

  let recycle p e =
    let c = Stats.installed () in
    if p.elen >= capacity then
      c.c_pool_dropped <- c.c_pool_dropped + 1
    else begin
      e.num <- 0;
      e.wire <- None;
      e.view <- Undecoded;
      e.span <- 0;
      e.ehome <- None;
      p.estack.(p.elen) <- e;
      p.elen <- p.elen + 1;
      c.c_pool_recycled <- c.c_pool_recycled + 1
    end
end

let of_wire w =
  { num = w.Value.num; wire = Some w; view = Undecoded;
    span = Obs.current (); ehome = None }

let of_call ?epool c =
  match epool with
  | None ->
    { num = Call.number c; wire = None; view = Typed c;
      span = Obs.current (); ehome = None }
  | Some p ->
    let t = Pool.take p in
    (* the record off the free list is scrubbed; fill only what this
       trap needs.  [ehome = epool] shares the caller's option — a
       fresh [Some] per trap would undo part of what the pool saves. *)
    t.num <- Call.number c;
    t.view <- Typed c;
    t.span <- Obs.current ();
    t.ehome <- epool;
    t

let at_boundary ?epool c =
  (* The application/system boundary is the untyped numeric form: encode
     now and deliberately forget the typed view, so agents below see
     exactly what an application would have trapped with.  With
     [epool], the envelope record comes off the caller's free list;
     [release] sends it back after the trap. *)
  let span = Obs.current () in
  Stats.note_encode ();
  Obs.note_encode span;
  let wire = Call.encode c in
  match epool with
  | None ->
    { num = wire.Value.num; wire = Some wire; view = Undecoded; span;
      ehome = None }
  | Some ep ->
    let t = Pool.take ep in
    t.num <- wire.Value.num;
    t.wire <- Some wire;
    t.span <- span;
    t.ehome <- epool;
    t

let release t =
  match t.ehome with
  | None -> ()
  | Some ep ->
    t.ehome <- None;
    Pool.recycle ep t

let span t = t.span
let set_span t s = t.span <- s

let number t = t.num

let call t =
  match t.view with
  | Typed c -> Ok c
  | Undecodable e -> Error e
  | Undecoded -> (
    let w =
      match t.wire with
      | Some w -> w
      | None -> assert false (* Undecoded implies a wire form exists *)
    in
    Stats.note_decode ();
    Obs.note_decode t.span;
    match Call.decode w with
    | Ok c ->
      t.view <- Typed c;
      Ok c
    | Error e ->
      t.view <- Undecodable e;
      Error e)

let wire t =
  match t.wire with
  | Some w -> w
  | None -> (
    match t.view with
    | Typed c ->
      Stats.note_encode ();
      Obs.note_encode t.span;
      (* a dirty envelope forced back to wire form is the PR 1
         definition of a genuine rewrite: some layer wants the raw
         vector of a call that no longer matches any prior encoding *)
      Obs.note_rewrite t.span;
      let w = Call.encode c in
      t.wire <- Some w;
      w
    | Undecoded | Undecodable _ -> assert false (* no wire implies Typed *))

let peek_wire t = t.wire

(* The canonical arg shape, from whichever view is already
   materialized.  Never decodes, encodes or bumps a codec counter, so
   signature capture cannot disturb the decode-once accounting it is
   meant to audit. *)
let shape t =
  match t.wire with
  | Some w -> Shape.of_wire w
  | None -> (
    match t.view with
    | Typed c -> Shape.of_call c
    | Undecoded | Undecodable _ -> "?")

let nargs t =
  match t.wire with
  | Some w -> Some (Array.length w.Value.args)
  | None -> None

let decoded t =
  match t.view with
  | Typed _ | Undecodable _ -> true
  | Undecoded -> false

let dirty t = t.wire = None

let pp fmt t =
  match t.view with
  | Typed c -> Call.pp fmt c
  | Undecodable e ->
    Format.fprintf fmt "<undecodable syscall %d: %s>" t.num (Errno.name e)
  | Undecoded -> (
    match t.wire with
    | Some w -> Value.pp_wire fmt w
    | None -> Format.fprintf fmt "<syscall %d>" t.num)
