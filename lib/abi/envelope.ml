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
  }

  (* The live counter set of one kernel shard (DESIGN.md §3.6).  The
     shard installs its set on entry; envelopes bump whichever set is
     installed.  A default set exists from program start so envelopes
     work outside any kernel. *)
  type t = {
    mutable c_traps : int;
    mutable c_chained : int;
    mutable c_fast_path : int;
    mutable c_decodes : int;
    mutable c_encodes : int;
    mutable c_crossings : int;
    mutable c_agent_calls : int;
  }

  let create () =
    { c_traps = 0; c_chained = 0; c_fast_path = 0;
      c_decodes = 0; c_encodes = 0; c_crossings = 0; c_agent_calls = 0 }

  let cur : t ref = ref (create ())
  let install c = cur := c
  let installed () = !cur

  let snapshot_of c =
    {
      traps = c.c_traps;
      chained = c.c_chained;
      fast_path = c.c_fast_path;
      decodes = c.c_decodes;
      encodes = c.c_encodes;
      crossings = c.c_crossings;
      agent_calls = c.c_agent_calls;
    }

  let reset_of c =
    c.c_traps <- 0;
    c.c_chained <- 0;
    c.c_fast_path <- 0;
    c.c_decodes <- 0;
    c.c_encodes <- 0;
    c.c_crossings <- 0;
    c.c_agent_calls <- 0

  let diff before after =
    {
      traps = after.traps - before.traps;
      chained = after.chained - before.chained;
      fast_path = after.fast_path - before.fast_path;
      decodes = after.decodes - before.decodes;
      encodes = after.encodes - before.encodes;
      crossings = after.crossings - before.crossings;
      agent_calls = after.agent_calls - before.agent_calls;
    }

  let pp fmt s =
    Format.fprintf fmt
      "traps=%d chained=%d fast_path=%d decodes=%d encodes=%d \
       crossings=%d agent_calls=%d"
      s.traps s.chained s.fast_path s.decodes s.encodes
      s.crossings s.agent_calls

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
      ]

  let note_trap_chained () =
    let c = !cur in
    c.c_traps <- c.c_traps + 1;
    c.c_chained <- c.c_chained + 1

  let note_trap_fast () =
    let c = !cur in
    c.c_traps <- c.c_traps + 1;
    c.c_fast_path <- c.c_fast_path + 1

  let note_crossing () =
    let c = !cur in
    c.c_crossings <- c.c_crossings + 1

  let note_agent_call () =
    let c = !cur in
    c.c_agent_calls <- c.c_agent_calls + 1

  let note_decode () =
    let c = !cur in
    c.c_decodes <- c.c_decodes + 1

  let note_encode () =
    let c = !cur in
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
  mutable home : Value.Pool.t option;
      (* The pool the wire came from, when [at_boundary] took it from
         one; cleared by [release] so a wire recycles at most once. *)
  mutable exposed : bool;
      (* Set once the raw wire has been handed out ([wire]/[peek_wire]):
         an agent may have kept the reference, so neither the wire nor
         the record can be recycled. *)
  mutable retained : bool;
      (* The escape hatch of the pooling contract: an agent that stashes
         the envelope past the trap boundary calls [retain], and
         [release] then leaves the whole record to the GC. *)
  mutable ehome : epool option;
      (* The pool the *record* came from, when [at_boundary]/[of_call]
         took it from one; cleared by [release] so a record recycles at
         most once. *)
}

(* The record pool lives in the same recursive knot as [t] (a record
   points back at its home pool), so the module below is mostly a
   veneer over this representation. *)
and epool = {
  mutable estack : t array;
  mutable elen : int;
  ecapacity : int;
}

(* Per-process free lists of envelope records — the PR 3 follow-on: the
   wires are pooled by [Value.Pool], but until now every trap still
   allocated the envelope record around them.  Same shape and contract
   as the wire pool: the free list only ever receives records whose
   trap owned them exclusively ([release] enforces the
   exposed/retained/rewritten rules), and every recycled record is
   scrubbed so a stale view, wire or span cannot leak into the next
   trap or pin dead objects against the GC. *)
module Pool = struct
  type nonrec t = epool

  let blank () =
    { num = 0; wire = None; view = Undecoded; span = 0; home = None;
      exposed = false; retained = false; ehome = None }

  let dummy =
    { num = 0; wire = None; view = Undecoded; span = 0; home = None;
      exposed = false; retained = false; ehome = None }

  module Stats = struct
    type snapshot = {
      hits : int;      (* takes served from the free list *)
      misses : int;    (* takes that fell back to allocation *)
      recycled : int;  (* records returned for reuse *)
      dropped : int;   (* returns rejected by a full pool *)
    }

    (* A counter set aggregating over every envelope pool of one kernel
       shard, exactly like [Value.Pool.Stats] for wires.  Deliberately
       *not* named [cur]: the globals lint keys allowlist entries by
       [file:binding], and a second [cur] in this file would silently
       ride the existing [envelope.ml:cur] entry. *)
    type t = {
      mutable c_hits : int;
      mutable c_misses : int;
      mutable c_recycled : int;
      mutable c_dropped : int;
    }

    let create () = { c_hits = 0; c_misses = 0; c_recycled = 0; c_dropped = 0 }

    let pcur : t ref = ref (create ())
    let install c = pcur := c
    let installed () = !pcur

    let snapshot_of c =
      { hits = c.c_hits; misses = c.c_misses;
        recycled = c.c_recycled; dropped = c.c_dropped }

    let reset_of c =
      c.c_hits <- 0; c.c_misses <- 0; c.c_recycled <- 0; c.c_dropped <- 0

    let diff before after =
      { hits = after.hits - before.hits;
        misses = after.misses - before.misses;
        recycled = after.recycled - before.recycled;
        dropped = after.dropped - before.dropped }

    let pp fmt s =
      Format.fprintf fmt "hits=%d misses=%d recycled=%d dropped=%d"
        s.hits s.misses s.recycled s.dropped

    let to_json s =
      Obs.Json.Obj
        [ ("hits", Obs.Json.Int s.hits);
          ("misses", Obs.Json.Int s.misses);
          ("recycled", Obs.Json.Int s.recycled);
          ("dropped", Obs.Json.Int s.dropped) ]
  end

  let create ?(capacity = 64) () =
    if capacity < 0 then invalid_arg "Envelope.Pool.create";
    { estack = Array.make capacity dummy; elen = 0; ecapacity = capacity }

  let size p = p.elen

  (* Invariant: every record on the free list is scrubbed (the state
     [blank] builds), so [take] only refills the fields the new trap
     needs. *)
  let take p =
    let c = !Stats.pcur in
    if p.elen = 0 then begin
      c.Stats.c_misses <- c.Stats.c_misses + 1;
      blank ()
    end
    else begin
      p.elen <- p.elen - 1;
      let e = p.estack.(p.elen) in
      p.estack.(p.elen) <- dummy;
      c.Stats.c_hits <- c.Stats.c_hits + 1;
      e
    end

  let recycle p e =
    let c = !Stats.pcur in
    if p.elen >= p.ecapacity then c.Stats.c_dropped <- c.Stats.c_dropped + 1
    else begin
      e.num <- 0;
      e.wire <- None;
      e.view <- Undecoded;
      e.span <- 0;
      e.home <- None;
      e.exposed <- false;
      e.retained <- false;
      e.ehome <- None;
      p.estack.(p.elen) <- e;
      p.elen <- p.elen + 1;
      c.Stats.c_recycled <- c.Stats.c_recycled + 1
    end
end

let of_wire w =
  { num = w.Value.num; wire = Some w; view = Undecoded; span = Obs.current ();
    home = None; exposed = true; retained = false; ehome = None }

let of_call ?epool c =
  match epool with
  | None ->
    { num = Call.number c; wire = None; view = Typed c;
      span = Obs.current (); home = None; exposed = false; retained = false;
      ehome = None }
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

let at_boundary ?pool ?epool c =
  (* The application/system boundary is the untyped numeric form: encode
     now and deliberately forget the typed view, so agents below see
     exactly what an application would have trapped with.  With [pool],
     the wire record comes off the caller's free list when one is
     available; with [epool], so does the envelope record itself;
     [release] sends both back after the trap. *)
  let span = Obs.current () in
  Stats.note_encode ();
  Obs.note_encode span;
  let wire =
    match pool with
    | None -> Call.encode c
    | Some p ->
      let w = Value.Pool.take p in
      Call.encode_into w c;
      w
  in
  (* [home = pool] shares the caller's option — building a fresh [Some]
     per trap would undo part of what the pool saves *)
  match epool with
  | None ->
    { num = Call.number c; wire = Some wire; view = Undecoded; span;
      home = pool; exposed = false; retained = false; ehome = None }
  | Some ep ->
    let t = Pool.take ep in
    t.num <- Call.number c;
    t.wire <- Some wire;
    t.span <- span;
    t.home <- pool;
    t.ehome <- epool;
    t

let retain t = t.retained <- true
let retained t = t.retained

let release t =
  (* Recycle only what this envelope still owns exclusively.  A
     [retain]ed envelope was stashed past the trap boundary by some
     layer (trace sink, journal): leave record and wire alone — the
     stash must stay readable — and let the GC have them eventually.
     Otherwise the wire recycles when it came from a pool, was never
     handed out raw, and was never rewritten (a dirty envelope dropped
     its original wire; any re-encoded one may be aliased by whoever
     forced it); the record recycles under the same exposure rule. *)
  if not t.retained then begin
    (match t.home with
     | None -> ()
     | Some p ->
       t.home <- None;
       (match t.wire with
        | Some w when not t.exposed ->
          (* Drop our reference before recycling: the record is about to
             be scrubbed and refilled by a later trap, and a released
             envelope must fail loudly (assert in [call]) rather than
             silently read someone else's arguments. *)
          t.wire <- None;
          Value.Pool.recycle p w
        | Some _ | None -> ()));
    match t.ehome with
    | None -> ()
    | Some ep ->
      t.ehome <- None;
      if not t.exposed then Pool.recycle ep t
  end

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
  t.exposed <- true;
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

let peek_wire t =
  (match t.wire with Some _ -> t.exposed <- true | None -> ());
  t.wire

(* The canonical arg shape, from whichever view is already
   materialized.  Reads the wire without marking it exposed — the
   shape retains no reference — and never decodes, encodes or bumps a
   codec counter, so signature capture cannot disturb the decode-once
   accounting it is meant to audit. *)
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
