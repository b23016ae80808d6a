(* The repository benchmark: host speed of three interposed workloads,
   end to end and layer by layer.  README.md beside this file says why
   each workload exists and which layer metric should move which
   end-to-end metric.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--commit SHA]
     bench.exe --self-check BENCHMARK.json

   Every run prints report lines starting with "# " (host fingerprint,
   seed, correctness checks, all five end-to-end figures, optional
   counters) and, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  An untraced run
   ([--trace 0]) reports the end-to-end metrics; a traced run
   ([--trace 1]) reports the per-layer metrics.

   The benchmark only calls public functions of the layers it measures
   and reads their counters through public accessors.  Dispatch and pool
   counters are read by field name from [metrics_json], so a block that
   a later change deletes is reported as absent instead of breaking the
   build. *)

open Abi
module Unistd = Libc.Unistd
module Cluster = Kernel.Cluster

(* --- clock and statistics ------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Log-linear histogram of non-negative ints (ns): [sub] buckets per
   power of two, so a quantile is known to within 1/[sub] of its value,
   over every sample, in fixed memory. *)
module Hist = struct
  let sub = 128
  let bits = 7 (* log2 sub *)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make ((63 - bits) * sub) 0; n = 0 }

  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1)

  let index v =
    if v < sub then max v 0
    else
      let shift = log2 v 0 - bits in
      ((shift + 1) * sub) + ((v lsr shift) - sub)

  (* the midpoint of bucket [i] *)
  let value i =
    if i < sub then float i
    else
      let shift = (i / sub) - 1 in
      float (((i mod sub) + sub) lsl shift) +. (float (1 lsl shift) /. 2.)

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  (* nearest-rank quantile; nan when empty *)
  let quantile h q =
    if h.n = 0 then nan
    else begin
      let target = max 1 (int_of_float (Float.ceil (q *. float h.n))) in
      let i = ref 0 and seen = ref h.counts.(0) in
      while !seen < target do
        incr i;
        seen := !seen + h.counts.(!i)
      done;
      value !i
    end
end

(* --- spans ----------------------------------------------------------------- *)

(* The traced run's recorder: spans (name, start, end, parent) kept in
   memory around the benchmark's calls into each layer and written out
   at the end.  A span's self time is its duration minus the time its
   child spans cover.  Per-name totals cover every span; raw records,
   the first [max_raw] of each name. *)
module Spans = struct
  type stat = {
    mutable count : int;
    mutable total : int;
    mutable self : int;
    hist : Hist.t; (* durations, ns *)
  }

  type frame = { id : int; name : int; start : int; mutable child : int }

  let on = ref false
  let max_raw = 20_000 (* raw records kept per span name *)
  let names : (string, int) Hashtbl.t = Hashtbl.create 64
  let name_list = ref [||]
  let stats = ref [||]
  let stack : frame list ref = ref []
  let next_id = ref 0
  let raw = Buffer.create 65536 (* one TSV line per recorded span *)

  let intern name =
    match Hashtbl.find_opt names name with
    | Some i -> i
    | None ->
      let i = Array.length !name_list in
      Hashtbl.add names name i;
      name_list := Array.append !name_list [| name |];
      stats :=
        Array.append !stats
          [| { count = 0; total = 0; self = 0; hist = Hist.create () } |];
      i

  let enter name =
    if !on then begin
      incr next_id;
      stack := { id = !next_id; name; start = now_ns (); child = 0 } :: !stack
    end

  let leave () =
    if !on then
      match !stack with
      | [] -> invalid_arg "Spans.leave: no open span"
      | f :: rest ->
        let stop = now_ns () in
        let dur = stop - f.start in
        stack := rest;
        let parent =
          match rest with
          | p :: _ ->
            p.child <- p.child + dur;
            p.id
          | [] -> 0
        in
        let s = !stats.(f.name) in
        s.count <- s.count + 1;
        s.total <- s.total + dur;
        s.self <- s.self + dur - f.child;
        Hist.add s.hist dur;
        if s.count <= max_raw then
          Printf.bprintf raw "%d\t%s\t%d\t%d\t%d\n" f.id !name_list.(f.name) parent
            f.start stop

  let span name f =
    if not !on then f ()
    else begin
      enter (intern name);
      match f () with
      | v ->
        leave ();
        v
      | exception e ->
        leave ();
        raise e
    end

  (* run [f] with recording off: the untraced half of a traced run *)
  let off f =
    let was = !on in
    on := false;
    Fun.protect f ~finally:(fun () -> on := was)

  let find name = Option.map (fun i -> !stats.(i)) (Hashtbl.find_opt names name)

  (* [q] quantile of the durations of every span called [name], ns;
     nan when there is none *)
  let quantile name q =
    match find name with Some s -> Hist.quantile s.hist q | None -> nan

  let count name = match find name with Some s -> s.count | None -> 0
  let median_s name = quantile name 0.5 /. 1e9

  let write path =
    let oc = open_out path in
    output_string oc "id\tname\tparent\tstart_ns\tend_ns\n";
    Buffer.output_buffer oc raw;
    close_out oc

  let summary () =
    Array.to_list
      (Array.mapi (fun i n -> (n, !stats.(i))) !name_list)
end

(* --- results ----------------------------------------------------------------- *)

type result = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list; (* newest first *)
}

let fresh_result () = { correct = true; attempted = 0; failed = 0; metrics = [] }
let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

let check r ok fmt =
  Printf.ksprintf
    (fun what ->
      if ok then note "check ok: %s" what
      else begin
        r.correct <- false;
        note "check FAILED: %s" what
      end)
    fmt

let put r name unit v = r.metrics <- (name, v, unit) :: r.metrics

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "non-finite metric"

let json_line r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (name, v, unit) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name (number v) unit)
    (List.rev r.metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- sizes --------------------------------------------------------------------- *)

type size = {
  mix_len : int;          (* ops in one null_stack pass *)
  kvd : Workloads.Kvd.params;
  make : Workloads.Make_cc.params;
  probe_s : float;        (* host seconds per depth-sweep cell *)
  probe_reps : int;       (* interleaved repetitions of every probe *)
  codec_iters : int;      (* envelope codec calls per span *)
  setups : string -> int; (* set-ups per run, by workload *)
  heap_passes : string -> int; (* timed passes before heap_peak_mb is read *)
}

let full =
  { mix_len = 4096; kvd = Workloads.Kvd.default_params;
    make = Workloads.Make_cc.default_params; probe_s = 0.2; probe_reps = 5;
    codec_iters = 20_000;
    (* a null set-up lasts milliseconds, so it takes many for a steady
       median; a kvd set-up includes a whole 1000-client warm-up pass *)
    setups = (function "null_stack" -> 31 | "make_fleet" -> 9 | _ -> 5);
    (* about a third of the passes a run makes on a slow host *)
    heap_passes = (function "null_stack" -> 2048 | "make_fleet" -> 32 | _ -> 12) }

let quick =
  { mix_len = 256; kvd = Workloads.Kvd.quick_params;
    make = Workloads.Make_cc.quick_params; probe_s = 0.01; probe_reps = 1;
    codec_iters = 200; setups = (fun _ -> 2); heap_passes = (fun _ -> 2) }

(* --- counters around a timed phase ------------------------------------------------- *)

(* Counter snapshot of a kernel or cluster: the trap count, the codec /
   pool blocks of [metrics_json] (by field name: a block or field that
   no longer exists reads as absent) and the obs span totals. *)
type counters = {
  c_traps : int;
  c_json : Obs.Json.t;
  c_spans : int;
  c_dropped : int;
  c_minor : float;
  c_promoted : float;
  c_major : int;
}

let counters ~traps ~json ~(obs : Obs.metrics) =
  let q = Gc.quick_stat () in
  { c_traps = traps; c_json = json; c_spans = obs.Obs.m_spans;
    c_dropped = obs.Obs.m_dropped; c_minor = Gc.minor_words ();
    c_promoted = q.Gc.promoted_words; c_major = q.Gc.major_collections }

let kernel_counters k =
  counters ~traps:(Kernel.total_syscalls k) ~json:(Kernel.metrics_json k)
    ~obs:(Kernel.metrics k)

let cluster_counters c =
  let traps = ref 0 in
  for i = 0 to Cluster.shards c - 1 do
    traps := !traps + Kernel.total_syscalls (Cluster.shard c i)
  done;
  counters ~traps:!traps ~json:(Cluster.metrics_json c)
    ~obs:(Cluster.metrics c)

let field block name (c : counters) =
  match Obs.Json.member block c.c_json with
  | None -> None
  | Some b -> Option.bind (Obs.Json.member name b) Obs.Json.to_int

let field_diff block name c0 c1 =
  match field block name c0, field block name c1 with
  | Some a, Some b -> Some (b - a)
  | _ -> None

(* --- host speed ------------------------------------------------------------------------ *)

(* The host is shared with other tenants.  Its speed for code whose
   working set spills out of L2 drifts by up to 2x over minutes with
   their memory traffic, while a loop that stays in L2 keeps its speed.
   Every workload here spills out of L2, so a raw host-time figure
   mostly reports the neighbours.  The reference is a chain of dependent
   loads along one random cycle through 64 MiB outside the OCaml heap:
   it allocates nothing and calls nothing in lib/, so no change to the
   program moves it, and its ns per step is the memory latency the host
   gives this process at that moment.  Time metrics are scaled to
   [nominal_ns] per step, the chase's speed on a quiet host. *)
module Host = struct
  let nominal_ns = 160.
  let steps = 100_000
  let every_ns = 400_000_000 (* one chase per 0.4 s of a timed phase *)

  let cycle =
    lazy
      (let n = 8 * 1024 * 1024 in
       let a = Bigarray.(Array1.create int c_layout n) in
       for i = 0 to n - 1 do a.{i} <- i done;
       (* Sattolo's shuffle: a single cycle through every slot *)
       let rng = Random.State.make [| 64 |] in
       for i = n - 1 downto 1 do
         let j = Random.State.int rng i in
         let t = a.{i} in
         a.{i} <- a.{j};
         a.{j} <- t
       done;
       a)

  (* ns per step of one chase *)
  let chase () =
    let a = Lazy.force cycle in
    let x = ref 0 in
    let t0 = now_ns () in
    for _ = 1 to steps do x := Bigarray.Array1.unsafe_get a !x done;
    let t1 = now_ns () in
    ignore (Sys.opaque_identity !x);
    float (t1 - t0) /. float steps
end

(* --- timed phase --------------------------------------------------------------------- *)

type pass = { p_ns : int; p_ops : int; p_attempted : int; p_virtual_us : int }

type phase = {
  passes : pass list; (* oldest first *)
  c0 : counters;
  c1 : counters;
  heap_words : int; (* top_heap_words after pass [mark], or at the end *)
  heap_mark : int;  (* the pass [heap_words] was read after *)
  chase_ns : float; (* mean Host.chase over the phase, ns per step *)
  chase_n : int;    (* chases run in the phase *)
}

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Closed loop: run [pass] back to back until [seconds] of host time
   have elapsed (at least once).  [pass] returns (answered ops,
   attempted ops, virtual µs).  The heap's high-water mark is read after
   pass [mark], a fixed amount of work: the live heap of some workloads
   grows with every pass, so a reading at the end would follow the
   number of passes, and with it the host's speed.  Between passes, one
   Host.chase every [Host.every_ns], outside the passes' time. *)
let timed ?(mark = max_int) ~seconds ~snap ~pass () =
  (* start from a collected heap: set-up garbage is not the phase's *)
  Gc.full_major ();
  let c0 = snap () in
  let heap = ref None in
  let chases = ref [] and next_chase = ref 0 in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop n acc =
    let t0 = now_ns () in
    let ops, attempted, v = pass () in
    let t1 = now_ns () in
    if n = mark then heap := Some (top_heap_words (), n);
    if t1 >= !next_chase then begin
      chases := Host.chase () :: !chases;
      next_chase := now_ns () + Host.every_ns
    end;
    let acc =
      { p_ns = t1 - t0; p_ops = ops; p_attempted = attempted;
        p_virtual_us = v }
      :: acc
    in
    if t1 < deadline then loop (n + 1) acc else (n, List.rev acc)
  in
  let n, passes = loop 1 [] in
  let heap_words, heap_mark =
    match !heap with Some h -> h | None -> (top_heap_words (), n)
  in
  let chase_n = List.length !chases in
  let chase_ns = List.fold_left ( +. ) 0. !chases /. float chase_n in
  { passes; c0; c1 = snap (); heap_words; heap_mark; chase_ns; chase_n }

let phase_ops ph = List.fold_left (fun a p -> a + p.p_ops) 0 ph.passes
let phase_ns ph = List.fold_left (fun a p -> a + p.p_ns) 0 ph.passes

(* Host seconds of a phase scaled to the quiet host: [ns] × nominal /
   the phase's chase time per step. *)
let host_scale ph = Host.nominal_ns /. ph.chase_ns

(* Ops over the whole timed phase.  The host's slowdowns come in
   phases of seconds that cover many passes; a median of per-pass rates
   jumps between the fast and the slow phase as their shares cross a
   half, while the whole-phase rate weighs each by its length. *)
let raw_ops_per_s ph = float_of_int (phase_ops ph) /. secs (phase_ns ph)

(* the reported rate: on the quiet host *)
let ops_per_s ph = raw_ops_per_s ph /. host_scale ph

let account r ph =
  List.iter
    (fun p ->
      r.attempted <- r.attempted + p.p_attempted;
      r.failed <- r.failed + (p.p_attempted - p.p_ops))
    ph.passes

(* every pass of a deterministic workload costs the same virtual time *)
let check_virtual r what ~expect ph =
  let bad = List.filter (fun p -> p.p_virtual_us <> expect) ph.passes in
  check r (bad = []) "%s: every pass costs %d virtual us (%d of %d differ)"
    what expect (List.length bad) (List.length ph.passes)

(* Install a process's agent stack, bottom-most first: one
   "core.install" span per non-empty stack. *)
let install_stack = function
  | [] -> ()
  | agents ->
    Spans.span "core.install" (fun () ->
      List.iter (fun a -> Toolkit.Loader.install a ~argv:[||]) agents)

(* --- workload: null_stack ------------------------------------------------------------------- *)

(* One process under 4 null symbolic agents issues a seeded mix of
   getpid, gettimeofday, lseek, 64-byte read and fstat on one open
   file.  Obs is off. *)
module Null = struct
  let path = "/bench/data"
  let file_size = 4096
  let depth = 4
  let init_pid = 1 (* Kernel.boot runs its body as pid 1 *)

  type op = Getpid | Gettimeofday | Lseek of int | Read of int | Fstat

  let names = [| "getpid"; "gettimeofday"; "lseek"; "read"; "fstat" |]

  let index = function
    | Getpid -> 0
    | Gettimeofday -> 1
    | Lseek _ -> 2
    | Read _ -> 3
    | Fstat -> 4

  type input = { content : string; blocks : string array; mix : op array }

  (* The seed fixes the file's bytes and the order of the mix.  Every
     read is preceded by an lseek since the last wrap, so each returns
     exactly the 64 bytes at a known offset. *)
  let input ~seed ~len =
    let rng = Random.State.make [| seed |] in
    let content =
      String.init file_size (fun _ -> Char.chr (33 + Random.State.int rng 94))
    in
    let blocks = Array.init (file_size / 64) (fun i -> String.sub content (i * 64) 64) in
    let off = ref file_size in
    let lseek () =
      let o = 64 * Random.State.int rng (file_size / 64) in
      off := o;
      Lseek o
    in
    let mix =
      Array.init len (fun i ->
        if i = 0 then lseek ()
        else
          match Random.State.int rng 5 with
          | 0 -> Getpid
          | 1 -> Gettimeofday
          | 2 -> lseek ()
          | 3 ->
            if !off >= file_size then lseek ()
            else begin
              let o = !off in
              off := o + 64;
              Read o
            end
          | _ -> Fstat)
    in
    { content; blocks; mix }

  type proc = { fd : int; buf : Bytes.t }

  let exec inp p = function
    | Getpid -> Unistd.getpid () = init_pid
    | Gettimeofday -> Result.is_ok (Unistd.gettimeofday ())
    | Lseek o -> ( match Unistd.lseek p.fd o 0 with Ok x -> x = o | Error _ -> false)
    | Read o -> (
      match Unistd.read p.fd p.buf 64 with
      | Ok 64 -> String.equal (Bytes.unsafe_to_string p.buf) inp.blocks.(o / 64)
      | _ -> false)
    | Fstat -> (
      match Unistd.fstat p.fd with
      | Ok st -> st.Stat.st_size = file_size
      | Error _ -> false)

  let libc_spans = Array.map (fun n -> "libc." ^ n) names

  (* One pass of the mix: (answered, attempted, virtual µs).  [traced]
     wraps every libc call in a span. *)
  let pass k inp p ~traced () =
    let v0 = Sim.Clock.now_us (Kernel.clock k) in
    let ok = ref 0 in
    if traced then begin
      let ids = Array.map Spans.intern libc_spans in
      Array.iter
        (fun op ->
          Spans.enter ids.(index op);
          if exec inp p op then incr ok;
          Spans.leave ())
        inp.mix
    end
    else Array.iter (fun op -> if exec inp p op then incr ok) inp.mix;
    (!ok, Array.length inp.mix, Sim.Clock.now_us (Kernel.clock k) - v0)

  (* A complete set-up — kernel, file, agents, one warm-up pass — then
     [body] inside the booted process.  Returns the set-up's host ns and
     the warm-up pass. *)
  let session ?(depth = depth) inp ~body =
    let t0 = now_ns () in
    let k =
      Spans.span "setup.kernel" (fun () ->
        let k = Kernel.create () in
        Kernel.populate_standard k;
        k)
    in
    Spans.span "setup.workload" (fun () ->
      Kernel.write_file k ~path inp.content);
    let setup = ref (0, (0, 0, 0)) in
    let status =
      Kernel.boot k ~name:"null_stack" (fun () ->
        install_stack
          (List.init depth (fun _ ->
             (Agents.Time_symbolic.create () :> Toolkit.Numeric.numeric_syscall)));
        match Unistd.open_ path Flags.Open.o_rdonly 0 with
        | Error _ -> 1
        | Ok fd ->
          let p = { fd; buf = Bytes.create 64 } in
          let warm = pass k inp p ~traced:false () in
          setup := (now_ns () - t0, warm);
          body k p;
          0)
    in
    if status <> 0 then failwith "null_stack: session failed";
    !setup
end

(* --- workload: kvd_stacked ----------------------------------------------------------------------- *)

(* Workloads.Kvd in fork-per-connection mode under sandbox+crypt+trace
   (the conformance matrix's [stacked] agents), obs on at 1-in-16.  The
   request mix is fixed inside the workload by per-client seeds; the
   benchmark seed does not reach it. *)
module Kvd = struct
  let sampling = 16

  let with_obs on f =
    Obs.reset ();
    if on then begin
      Obs.enable ();
      Obs.set_sampling sampling
    end
    else Obs.disable ();
    Fun.protect f ~finally:(fun () ->
      Obs.disable ();
      Obs.set_sampling 1;
      Obs.reset ())

  let install stacks =
    install_stack (List.concat_map (fun s -> s.Conformance.sk_make ()) stacks)

  (* one closed-loop pass over every client: (answered, attempted,
     virtual µs, exit status, stats, /kvd/summary) *)
  let pass k params =
    let stats = Workloads.Kvd.fresh_stats () in
    let v0 = Sim.Clock.now_us (Kernel.clock k) in
    let status =
      Workloads.Kvd.body ~params ~stats ~mode:Workloads.Kvd.Fork_per_conn ()
    in
    let v = Sim.Clock.now_us (Kernel.clock k) - v0 in
    ignore (Kernel.drain_causal k);
    let attempted =
      params.Workloads.Kvd.clients * params.Workloads.Kvd.ops_per_client
    in
    (stats.Workloads.Kvd.ops, attempted, v, status, stats,
     Kernel.read_file k Workloads.Kvd.summary_path)

  let pass_ok params (ops, attempted, _, status, stats, _) =
    status = 0 && ops = attempted
    && stats.Workloads.Kvd.conns = params.Workloads.Kvd.clients
    && stats.Workloads.Kvd.errors = 0

  let boot_kernel () =
    let k =
      Spans.span "setup.kernel" (fun () ->
        let k = Kernel.create () in
        Kernel.populate_standard k;
        k)
    in
    Spans.span "setup.workload" (fun () -> Workloads.Kvd.setup k);
    k
end

(* --- workload: make_fleet ----------------------------------------------------------------------- *)

(* A 4-shard cluster; each shard runs Table 3-3's make session under
   none, timex, union and trace respectively.  Obs is off. *)
module Make = struct
  let variants = [| "none"; "timex"; "union"; "trace" |]

  (* Table 3-3 at make seed 7, default sizes, virtual seconds *)
  let table3_3 = [| "15.96"; "17.35"; "21.27"; "28.23" |]

  let mounts =
    [ { Agents.Union.point = Workloads.Make_cc.project_dir;
        members = [ "/objdir"; "/srcdir" ] } ]

  let out_dir v = if v = "union" then "/objdir" else Workloads.Make_cc.project_dir

  (* the project tree; the union shard keeps its sources in /srcdir
     and builds into /objdir, both seen through /proj *)
  let prepare k ~params ~seed v =
    Workloads.Make_cc.setup ~params ~seed k;
    if v = "union" then begin
      Kernel.mkdir_p k "/objdir";
      let fs = Kernel.fs k in
      match
        Vfs.Fs.rename fs Vfs.Fs.root_cred ~cwd:(Vfs.Fs.root_ino fs)
          ~src:Workloads.Make_cc.project_dir "/srcdir"
      with
      | Ok () -> ()
      | Error e -> failwith ("make_fleet: rename: " ^ Errno.name e)
    end

  let agent v : Toolkit.Numeric.numeric_syscall list =
    match v with
    | "timex" -> [ (Agents.Timex.create ~offset_seconds:3600 () :> Toolkit.Numeric.numeric_syscall) ]
    | "union" -> [ (Agents.Union.create ~mounts () :> Toolkit.Numeric.numeric_syscall) ]
    | "trace" -> (
      match
        Unistd.open_ "/trace.out" Flags.Open.(o_wronly lor o_creat lor o_trunc) 0o644
      with
      | Ok fd -> [ (Agents.Trace.create ~fd () :> Toolkit.Numeric.numeric_syscall) ]
      | Error e -> failwith ("make_fleet: trace sink: " ^ Errno.name e))
    | _ -> []

  let session v () =
    install_stack (agent v);
    Workloads.Make_cc.body ()

  let missing k ~params v =
    let n = ref 0 in
    for p = 1 to params.Workloads.Make_cc.programs do
      if not (Kernel.exists k (Printf.sprintf "%s/prog%d" (out_dir v) p)) then incr n
    done;
    !n

  (* remove build products so the next pass rebuilds everything *)
  let clean k v =
    if v <> "union" then Workloads.Make_cc.clean k
    else begin
      let fs = Kernel.fs k in
      let root = Vfs.Fs.root_ino fs in
      match Vfs.Fs.resolve fs Vfs.Fs.root_cred ~cwd:root "/objdir" with
      | Error _ -> ()
      | Ok dir ->
        List.iter
          (fun (name, _) ->
            if name <> "." && name <> ".." then
              ignore (Vfs.Fs.unlink fs Vfs.Fs.root_cred ~cwd:root ("/objdir/" ^ name)))
          (Vfs.Inode.dir_entries dir)
    end

  let cluster ~params ~seed =
    let c =
      Spans.span "setup.kernel" (fun () ->
        let c = Cluster.create ~shards:(Array.length variants) () in
        for i = 0 to Array.length variants - 1 do
          Kernel.populate_standard (Cluster.shard c i)
        done;
        c)
    in
    Spans.span "setup.workload" (fun () ->
      Array.iteri (fun i v -> prepare (Cluster.shard c i) ~params ~seed v) variants);
    c

  let vclock c i = Sim.Clock.now_us (Kernel.clock (Cluster.shard c i))

  (* One pass: every shard runs its session once.  Returns (answered,
     attempted, Σ virtual µs) and each shard's (virtual µs, exit
     status, missing outputs). *)
  let pass c ~params =
    let n = Array.length variants in
    let v0 = Array.init n (vclock c) in
    let procs =
      Array.mapi
        (fun i v -> Cluster.boot_shard c i ~name:("make-" ^ v) (session v))
        variants
    in
    Cluster.run c;
    let per_shard =
      Array.mapi
        (fun i v ->
          let k = Cluster.shard c i in
          let miss = missing k ~params v in
          clean k v;
          (vclock c i - v0.(i), procs.(i).Kernel.Proc.exit_status, miss))
        variants
    in
    let programs = params.Workloads.Make_cc.programs in
    let ok =
      Array.fold_left
        (fun a (_, st, miss) -> a + if st <> 0 then 0 else programs - miss)
        0 per_shard
    in
    let virt = Array.fold_left (fun a (v, _, _) -> a + v) 0 per_shard in
    ((ok, programs * n, virt), per_shard)

  (* one session booted alone on its own kernel: (host ns, virtual s,
     status, missing outputs) *)
  let alone ~params ~seed v =
    let k = Kernel.create () in
    Kernel.populate_standard k;
    prepare k ~params ~seed v;
    Gc.full_major ();
    let t0 = now_ns () in
    let status =
      Spans.span ("make." ^ v) (fun () ->
        Kernel.boot k ~name:("make-" ^ v) (session v))
    in
    (now_ns () - t0, Kernel.elapsed_seconds k, status, missing k ~params v)
end

(* --- run configuration ----------------------------------------------------------------------- *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
}

let workloads = [ "null_stack"; "kvd_stacked"; "make_fleet" ]

(* What a workload's timed phase hands back to the reporting code. *)
type measured = {
  untraced : phase;         (* the timed phase, tracing off *)
  traced_phase : phase option;
  setup_ns : int list;
  virtual_s : float;        (* one pass, summed over shards *)
}

(* [setups] complete set-ups, each on fresh kernels.  The middle one,
   [one ~final:true], goes on into the timed phase, so half the set-up
   samples come from the start of the run and half from its end: the
   median then spans the host's slow drifts the way the timed phase
   does. *)
let repeat_setups cfg one =
  let n = cfg.size.setups cfg.workload in
  List.init n (fun i -> one ~final:(i = n / 2))

let split cfg = if cfg.traced then cfg.seconds /. 2. else cfg.seconds
let heap_pass cfg = cfg.size.heap_passes cfg.workload

(* the traced half of a traced run: the same loop with spans on *)
let traced_half cfg ~snap ~pass =
  if not cfg.traced then None
  else Some (timed ~seconds:(cfg.seconds /. 2.) ~snap ~pass ())

let run_null cfg r =
  let inp = Null.input ~seed:cfg.seed ~len:cfg.size.mix_len in
  let result = ref None in
  let setup_ns =
    repeat_setups cfg (fun ~final ->
      let ns, (wok, watt, wv) =
        Null.session inp ~body:(fun k p ->
          if final then begin
            let snap () = kernel_counters k in
            let untraced =
              Spans.off (fun () ->
                timed ~mark:(heap_pass cfg) ~seconds:(split cfg) ~snap
                  ~pass:(Null.pass k inp p ~traced:false) ())
            in
            let tp =
              traced_half cfg ~snap ~pass:(fun () ->
                Spans.span "null_stack.pass" (Null.pass k inp p ~traced:true))
            in
            result := Some (untraced, tp)
          end)
      in
      check r (wok = watt) "null_stack: warm-up pass answers %d/%d calls" wok watt;
      (ns, wv))
  in
  let untraced, tp = Option.get !result in
  let warm_v = snd (List.hd setup_ns) in
  List.iter (fun ph -> account r ph; check_virtual r "null_stack" ~expect:warm_v ph)
    (untraced :: Option.to_list tp);
  check r (r.failed = 0)
    "null_stack: every call returns Ok, reads return the file's 64 bytes, getpid = %d"
    Null.init_pid;
  { untraced; traced_phase = tp; setup_ns = List.map fst setup_ns;
    virtual_s = float_of_int warm_v /. 1e6 }

let run_kvd cfg r =
  let params = cfg.size.kvd in
  let result = ref None in
  let first_summary = ref None in
  let check_pass ((_, _, _, _, _, summary) as res) =
    if not (Kvd.pass_ok params res) then r.correct <- false;
    match !first_summary with
    | None -> first_summary := Some summary
    | Some s -> if s <> summary then r.correct <- false
  in
  let setup_ns =
    repeat_setups cfg (fun ~final ->
      Kvd.with_obs true (fun () ->
        let t0 = now_ns () in
        let k = Kvd.boot_kernel () in
        let ns = ref 0 and warm_v = ref 0 in
        let status =
          Kernel.boot k ~name:"kvd_stacked" (fun () ->
            Kvd.install [ Conformance.stacked ];
            let (_, _, v, _, _, _) as warm = Kvd.pass k params in
            check_pass warm;
            ns := now_ns () - t0;
            warm_v := v;
            if final then begin
              let snap () = kernel_counters k in
              let pass () =
                let (ops, att, v, _, _, _) as res = Kvd.pass k params in
                check_pass res;
                (ops, att, v)
              in
              let untraced =
                Spans.off (timed ~mark:(heap_pass cfg) ~seconds:(split cfg) ~snap ~pass)
              in
              let tp =
                traced_half cfg ~snap ~pass:(fun () ->
                  Spans.span "workloads.kvd.body" pass)
              in
              result := Some (untraced, tp)
            end;
            0)
        in
        check r (status = 0) "kvd_stacked: init exits 0";
        (!ns, !warm_v)))
  in
  let untraced, tp = Option.get !result in
  let timed_v = (List.hd untraced.passes).p_virtual_us in
  List.iter (fun ph -> account r ph; check_virtual r "kvd_stacked" ~expect:timed_v ph)
    (untraced :: Option.to_list tp);
  check r r.correct
    "kvd_stacked: %d/%d connections, errors = 0, exit 0 and an identical %s on every pass"
    params.Workloads.Kvd.clients params.Workloads.Kvd.clients
    Workloads.Kvd.summary_path;
  note "kvd_stacked: virtual us per pass: warm-up %s, timed %d"
    (String.concat "/" (List.map (fun (_, v) -> string_of_int v) setup_ns))
    timed_v;
  { untraced; traced_phase = tp; setup_ns = List.map fst setup_ns;
    virtual_s = float_of_int timed_v /. 1e6 }

let run_make cfg r =
  let params = cfg.size.make in
  let shard_v = ref [||] in
  let check_shards ((_, per_shard) as res) =
    Array.iteri
      (fun i (v, st, miss) ->
        if st <> 0 || miss <> 0 then r.correct <- false;
        (match !shard_v with
         | [||] -> ()
         | exp -> if exp.(i) <> v then r.correct <- false))
      per_shard;
    if !shard_v = [||] then shard_v := Array.map (fun (v, _, _) -> v) per_shard;
    fst res
  in
  let result = ref None in
  let setup_ns =
    repeat_setups cfg (fun ~final ->
      let t0 = now_ns () in
      let c = Make.cluster ~params ~seed:cfg.seed in
      let _ = check_shards (Make.pass c ~params) in
      let ns = now_ns () - t0 in
      if final then begin
        let snap () = cluster_counters c in
        let pass () = check_shards (Make.pass c ~params) in
        let untraced =
          Spans.off (timed ~mark:(heap_pass cfg) ~seconds:(split cfg) ~snap ~pass)
        in
        let tp =
          traced_half cfg ~snap ~pass:(fun () -> Spans.span "cluster.run" pass)
        in
        result := Some (untraced, tp)
      end;
      ns)
  in
  let untraced, tp = Option.get !result in
  List.iter (fun ph -> account r ph) (untraced :: Option.to_list tp);
  check r r.correct
    "make_fleet: every shard exits 0, every prog1..prog%d exists, per-shard virtual time repeats"
    params.Workloads.Make_cc.programs;
  note "make_fleet: per-shard virtual s per pass (%s): %s"
    (String.concat "/" (Array.to_list Make.variants))
    (String.concat "/"
       (Array.to_list (Array.map (fun v -> Printf.sprintf "%.2f" (float v /. 1e6)) !shard_v)));
  { untraced; traced_phase = tp; setup_ns;
    virtual_s = float_of_int (Array.fold_left ( + ) 0 !shard_v) /. 1e6 }

(* --- per-layer probes (traced run) -------------------------------------------------------- *)

(* Virtual µs per stacked getpid at depth 0..4: the paper's cost model,
   which must read 25/165/168/171/174 — the figures every change keeps. *)
let getpid_sweep r =
  let expect = [ 25; 165; 168; 171; 174 ] in
  let got =
    List.mapi
      (fun depth _ ->
        let k = Kernel.create () in
        Kernel.populate_standard k;
        let per = ref 0. in
        let _ =
          Kernel.boot k ~name:"getpid-sweep" (fun () ->
            for _ = 1 to depth do
              Toolkit.Loader.install (Agents.Time_symbolic.create ()) ~argv:[||]
            done;
            for _ = 1 to 10 do ignore (Unistd.getpid ()) done;
            let v0 = Sim.Clock.now_us (Kernel.clock k) in
            for _ = 1 to 300 do ignore (Unistd.getpid ()) done;
            per := float (Sim.Clock.now_us (Kernel.clock k) - v0) /. 300.;
            0)
        in
        !per)
      expect
  in
  check r (List.map float expect = got) "getpid sweep reads %s virtual us (expect 25/165/168/171/174)"
    (String.concat "/" (List.map (Printf.sprintf "%g") got))

(* Host ns per trap of the null_stack mix at depth 0..4 null agents,
   [probe_reps] interleaved sweeps, median per depth.  Depth 0 is the
   bare kernel trap; the median step is one toolkit layer. *)
let depth_sweep cfg r inp =
  let cells = Array.make 5 [] in
  for _ = 1 to cfg.size.probe_reps do
    for depth = 0 to 4 do
      let _ =
        Null.session ~depth inp ~body:(fun k p ->
          let ph =
            Spans.span (Printf.sprintf "probe.depth%d" depth) (fun () ->
              timed ~seconds:cfg.size.probe_s
                ~snap:(fun () -> kernel_counters k)
                ~pass:(Null.pass k inp p ~traced:false) ())
          in
          let traps = ph.c1.c_traps - ph.c0.c_traps in
          cells.(depth) <- (float (phase_ns ph) /. float traps) :: cells.(depth))
      in
      ()
    done
  done;
  let ns = Array.map median cells in
  note "depth sweep ns/trap (0..4): %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") ns)));
  put r "kernel.trap_ns" "ns" ns.(0);
  put r "core.layer_ns" "ns" (median (List.init 4 (fun d -> ns.(d + 1) -. ns.(d))))

(* The traced null mix at full depth: a span around every libc call. *)
let libc_probe cfg inp =
  let _ =
    Null.session inp ~body:(fun k p ->
      Spans.span "probe.libc" (fun () ->
        ignore
          (timed ~seconds:(cfg.size.probe_s *. 5.)
             ~snap:(fun () -> kernel_counters k)
             ~pass:(Null.pass k inp p ~traced:true) ())))
  in
  ()

let libc_metrics r =
  Array.iter
    (fun name ->
      let p50 = Spans.quantile name 0.5 and p90 = Spans.quantile name 0.9 in
      note "%s: %d samples, p50 %.0f ns, p90 %.0f ns" name (Spans.count name) p50 p90;
      put r (name ^ ".ns_p50") "ns" p50;
      put r (name ^ ".ns_p90") "ns" p90;
      put r (name ^ ".samples") "count" (float (Spans.count name)))
    Null.libc_spans

(* Envelope encode/decode of the mix's five calls, outside any trap: a
   span around [codec_iters] calls, median of [probe_reps]. *)
let codec_probe cfg r =
  (* a current shard, so the codec counters the envelopes bump exist *)
  let _ = Kernel.create () in
  let calls =
    [ ("getpid", Call.Getpid); ("gettimeofday", Call.Gettimeofday (ref None));
      ("lseek", Call.Lseek (3, 0, 0)); ("read", Call.Read (3, Bytes.create 64, 64));
      ("fstat", Call.Fstat (3, ref None)) ]
  in
  let n = cfg.size.codec_iters in
  let per name f =
    median
      (List.init cfg.size.probe_reps (fun _ ->
         let t0 = now_ns () in
         Spans.span name (fun () -> for _ = 1 to n do f () done);
         float (now_ns () - t0) /. float n))
  in
  let enc, dec =
    List.split
      (List.map
         (fun (name, c) ->
           let e = per ("abi.encode." ^ name) (fun () -> ignore (Envelope.at_boundary c)) in
           let w = Envelope.wire (Envelope.at_boundary c) in
           let d =
             per ("abi.decode." ^ name) (fun () ->
               ignore (Envelope.call (Envelope.of_wire w)))
           in
           note "codec %s: encode %.1f ns, decode %.1f ns" name e d;
           (e, d))
         calls)
  in
  let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs) in
  put r "abi.encode_ns" "ns" (mean enc);
  put r "abi.decode_ns" "ns" (mean dec)

(* kvd passes on fresh kernels, adding one agent of the stacked set at
   a time (obs off), then the full stack with obs at 1-in-16.  Each
   cell's host ns covers Kvd.body only. *)
let kvd_probe cfg r =
  let params = cfg.size.kvd in
  let configs =
    [ ("bare", [], false);
      ("sandbox", [ Conformance.sandbox ], false);
      ("sandbox+crypt", [ Conformance.sandbox; Conformance.crypt ], false);
      ("stacked", [ Conformance.sandbox; Conformance.crypt; Conformance.trace ], false);
      ("stacked+obs", [ Conformance.sandbox; Conformance.crypt; Conformance.trace ], true) ]
  in
  let cells = Hashtbl.create 8 in
  for _ = 1 to cfg.size.probe_reps do
    List.iter
      (fun (name, stacks, obs) ->
        Kvd.with_obs obs (fun () ->
          let k = Kvd.boot_kernel () in
          let res = ref (0, 0) in
          let _ =
            Kernel.boot k ~name:("kvd-" ^ name) (fun () ->
              Kvd.install stacks;
              let traps0 = Kernel.total_syscalls k in
              Gc.full_major ();
              let t0 = now_ns () in
              let pr =
                Spans.span ("probe.kvd." ^ name) (fun () -> Kvd.pass k params)
              in
              let ns = now_ns () - t0 in
              if not (Kvd.pass_ok params pr) then r.correct <- false;
              res := (ns, Kernel.total_syscalls k - traps0);
              0)
          in
          Hashtbl.add cells name !res))
      configs
  done;
  let ns name = median (List.map (fun (ns, _) -> float ns) (Hashtbl.find_all cells name)) in
  let traps name = snd (Hashtbl.find cells name) in
  List.iter
    (fun (name, _, _) ->
      note "kvd probe %s: %.3f s per pass, %d traps" name (ns name /. 1e9) (traps name))
    configs;
  let bare_traps = float (traps "bare") in
  put r "kernel.kvd_bare_ns_per_trap" "ns" (ns "bare" /. bare_traps);
  put r "agents.sandbox.ns_per_trap" "ns" ((ns "sandbox" -. ns "bare") /. bare_traps);
  put r "agents.crypt.ns_per_trap" "ns" ((ns "sandbox+crypt" -. ns "sandbox") /. bare_traps);
  put r "agents.trace.ns_per_trap" "ns" ((ns "stacked" -. ns "sandbox+crypt") /. bare_traps);
  put r "obs.ns_per_trap" "ns"
    ((ns "stacked+obs" -. ns "stacked") /. float (traps "stacked"))

(* Each make session booted alone (make seed 7: Table 3-3), and the same
   four sessions as one cluster pass. *)
let make_probe cfg r =
  let params = cfg.size.make in
  let alone = Hashtbl.create 8 and fleet = ref [] and virt = ref [] in
  for _ = 1 to cfg.size.probe_reps do
    Array.iter
      (fun v ->
        let ns, vs, st, miss = Make.alone ~params ~seed:7 v in
        if st <> 0 || miss <> 0 then r.correct <- false;
        virt := Printf.sprintf "%.2f" vs :: !virt;
        Hashtbl.add alone v (float ns))
      Make.variants;
    let c = Make.cluster ~params ~seed:7 in
    Gc.full_major ();
    let t0 = now_ns () in
    let (ok, att, _), _ = Spans.span "probe.cluster" (fun () -> Make.pass c ~params) in
    if ok <> att then r.correct <- false;
    fleet := float (now_ns () - t0) :: !fleet
  done;
  let alone_s v = median (Hashtbl.find_all alone v) /. 1e9 in
  (* Table 3-3 holds only at the default sizes *)
  if params = Workloads.Make_cc.default_params then begin
    let one = Array.to_list Make.table3_3 in
    let want = List.concat (List.init cfg.size.probe_reps (fun _ -> one)) in
    check r (List.rev !virt = want) "make sessions alone read %s virtual s (Table 3-3: %s)"
      (String.concat "/" (List.filteri (fun i _ -> i < 4) (List.rev !virt)))
      (String.concat "/" one)
  end;
  Array.iter (fun v -> put r (Printf.sprintf "make.%s.host_s" v) "s" (alone_s v)) Make.variants;
  let sum = Array.fold_left (fun a v -> a +. alone_s v) 0. Make.variants in
  put r "cluster.overhead_frac" "ratio" ((median !fleet /. 1e9 /. sum) -. 1.)

(* --- reporting ------------------------------------------------------------------------------ *)

let mb words = float (words * (Sys.word_size / 8)) /. 1e6
let heap_peak_mb m = mb m.untraced.heap_words

(* the set-ups share the timed phase's host scale: they are spread over
   the same run *)
let raw_setup_s m = median (List.map secs m.setup_ns)
let setup_s m = raw_setup_s m *. host_scale m.untraced

let e2e r m =
  let ph = m.untraced in
  let ops = phase_ops ph in
  let frac = ratio r.failed r.attempted in
  note "e2e: host chase %.1f ns/step over %d chases; times scaled by %.4f to the quiet host's %.0f"
    ph.chase_ns ph.chase_n (host_scale ph) Host.nominal_ns;
  note "e2e: ops_per_s=%.1f 1/s (%.1f unscaled: %d ops in %.3f s, %d passes)"
    (ops_per_s ph) (raw_ops_per_s ph) ops (secs (phase_ns ph)) (List.length ph.passes);
  note "e2e: ops_failed_frac=%g (%d of %d)" frac r.failed r.attempted;
  note "e2e: virtual_s=%.6f s per pass" m.virtual_s;
  note "e2e: setup_s=%.6f s (%.6f unscaled, the median of %s)" (setup_s m) (raw_setup_s m)
    (String.concat ", " (List.map (fun ns -> Printf.sprintf "%.4f" (secs ns)) m.setup_ns));
  note "e2e: heap_peak_mb=%.3f MB (after timed pass %d; %.3f MB at the end)"
    (heap_peak_mb m) m.untraced.heap_mark (mb (top_heap_words ()));
  note "e2e: pass host s: %s"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.4f" (secs p.p_ns)) m.untraced.passes));
  put r "ops_per_s" "1/s" (ops_per_s m.untraced);
  put r "setup_s" "s" (setup_s m);
  put r "heap_peak_mb" "MB" (heap_peak_mb m)

(* Counters over the untraced timed phase. *)
let phase_layers r m =
  let ph = m.untraced in
  let traps = ph.c1.c_traps - ph.c0.c_traps in
  let ops = phase_ops ph in
  put r "kernel.traps_per_op" "count" (ratio traps ops);
  put r "kernel.ns_per_trap" "ns" (float (phase_ns ph) /. float (max 1 traps));
  let codec_traps = field_diff "codec" "traps" ph.c0 ph.c1 in
  let per name =
    match field_diff "codec" name ph.c0 ph.c1, codec_traps with
    | Some n, Some t -> ratio n t
    | _ -> failwith ("codec block lacks " ^ name)
  in
  put r "abi.decodes_per_trap" "count" (per "decodes");
  put r "abi.encodes_per_trap" "count" (per "encodes");
  (* dispatch and pool counters: read by name, absent when deleted *)
  let frac what block num den =
    match field_diff block num ph.c0 ph.c1, field_diff block den ph.c0 ph.c1 with
    | Some n, Some d -> note "%s=%.6f (%d/%d)" what (ratio n d) n d
    | _ -> note "%s=absent (no %s.%s)" what block num
  in
  let chained =
    match field "codec" "chained" ph.c0 with Some _ -> "chained" | None -> "fused"
  in
  frac "abi.chained_frac" "codec" chained "traps";
  frac "abi.fast_path_frac" "codec" "fast_path" "traps";
  frac "abi.intercepted_frac" "codec" "intercepted" "traps";
  let pool what block =
    match field_diff block "hits" ph.c0 ph.c1, field_diff block "misses" ph.c0 ph.c1 with
    | Some h, Some m -> note "%s=%.6f (%d hits, %d misses)" what (ratio h (h + m)) h m
    | _ -> note "%s=absent (no %s block)" what block
  in
  pool "abi.wire_pool_hit_frac" "wire_pool";
  pool "abi.env_pool_hit_frac" "env_pool";
  put r "obs.spans" "count" (float (ph.c1.c_spans - ph.c0.c_spans));
  put r "obs.dropped" "count" (float (ph.c1.c_dropped - ph.c0.c_dropped));
  let t = float (max 1 traps) in
  put r "gc.minor_words_per_trap" "words" ((ph.c1.c_minor -. ph.c0.c_minor) /. t);
  put r "gc.promoted_words_per_trap" "words" ((ph.c1.c_promoted -. ph.c0.c_promoted) /. t);
  put r "gc.major_collections" "count" (float (ph.c1.c_major - ph.c0.c_major));
  put r "host.chase_ns" "ns" ph.chase_ns;
  match m.traced_phase with
  | None -> ()
  | Some tp ->
    let u = ops_per_s ph and t = ops_per_s tp in
    note "traced ops_per_s=%.1f vs untraced %.1f" t u;
    put r "trace.overhead_frac" "ratio" (1. -. (t /. u))

let run cfg =
  let r = fresh_result () in
  (* build the chase's cycle before any set-up is timed *)
  ignore (Lazy.force Host.cycle);
  Spans.on := cfg.traced;
  let m =
    match cfg.workload with
    | "null_stack" -> run_null cfg r
    | "kvd_stacked" -> run_kvd cfg r
    | "make_fleet" -> run_make cfg r
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  if not cfg.traced then begin
    e2e r m;
    (* the timed phase's exact counters, as report lines *)
    let layers = fresh_result () in
    phase_layers layers m;
    List.iter
      (fun (name, v, unit) -> note "layer %s=%g %s" name v unit)
      (List.rev layers.metrics)
  end
  else begin
    phase_layers r m;
    put r "setup.kernel_s" "s" (Spans.median_s "setup.kernel");
    put r "setup.workload_s" "s" (Spans.median_s "setup.workload");
    put r "core.install_s" "s" (Spans.median_s "core.install");
    let inp = Null.input ~seed:cfg.seed ~len:cfg.size.mix_len in
    getpid_sweep r;
    depth_sweep cfg r inp;
    libc_probe cfg inp;
    libc_metrics r;
    codec_probe cfg r;
    kvd_probe cfg r;
    make_probe cfg r;
    check r r.correct "%s traced run: every check passed" cfg.workload;
    List.iter
      (fun (name, (s : Spans.stat)) ->
        note "span %s: %d, total %.3f ms, self %.3f ms" name s.count
          (float s.total /. 1e6) (float s.self /. 1e6))
      (Spans.summary ())
  end;
  Spans.on := false;
  r

(* --- self-check ------------------------------------------------------------------------ *)

(* Quick sizes: every workload untraced and traced must be correct and
   print exactly BENCHMARK.json's metrics with their units. *)
let self_check spec_path =
  let spec =
    let ic = open_in_bin spec_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Obs.Json.of_string s with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let names key =
    match Option.bind (Obs.Json.member key spec) Obs.Json.to_list with
    | None -> failwith ("BENCHMARK.json: no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let s k = Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_str) in
          (s "name", s "unit"))
        l
  in
  let bad = ref [] in
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let cfg =
            { workload; seed = 11; seconds = 0.05; traced; size = quick }
          in
          let r = run cfg in
          let got = List.rev_map (fun (n, _, u) -> (n, u)) r.metrics in
          let want = names (if traced then "per_layer" else "end_to_end") in
          let tag = Printf.sprintf "%s trace=%b" workload traced in
          if not r.correct then bad := (tag ^ ": incorrect") :: !bad;
          if r.failed <> 0 || r.attempted < 1 then bad := (tag ^ ": failed ops") :: !bad;
          if List.sort compare got <> List.sort compare want then
            bad := (tag ^ ": metrics differ from " ^ spec_path) :: !bad;
          print_endline (json_line r))
        [ false; true ])
    workloads;
  match !bad with
  | [] -> print_endline "self-check: ok"
  | l ->
    List.iter prerr_endline (List.rev l);
    exit 1

(* --- main ---------------------------------------------------------------------------------- *)

let usage =
  "bench.exe --workload (null_stack|kvd_stacked|make_fleet) --seed N --seconds S \
   --trace 0|1 [--commit SHA]\n\
   bench.exe --self-check BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and self = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--commit", Arg.Set_string commit, "SHA source revision, for the report");
      ("--self-check", Arg.Set_string self, "FILE quick run of every workload") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self <> "" then self_check !self
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline usage;
      exit 2
    end;
    if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let cfg =
      { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1;
        size = full }
    in
    note "perfbench workload=%s seed=%d seconds=%g trace=%d" cfg.workload cfg.seed
      cfg.seconds !trace;
    note "host nproc=%d ocaml=%s commit=%s" (Domain.recommended_domain_count ())
      Sys.ocaml_version !commit;
    let r = run cfg in
    if cfg.traced then begin
      let dir = "perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-%d.tsv" dir cfg.workload cfg.seed in
      Spans.write path;
      note "spans written to %s" path
    end;
    print_endline (json_line r)
  end
