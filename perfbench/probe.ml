(* Host-time spans recorded by the benchmark around its own calls into the
   program's public functions.  Nothing inside the program is
   instrumented: a span starts just before the benchmark calls a layer and
   ends when the call returns, so a layer's self time is the part of its
   span that no nested span (say, the pagedaemon under a touch) covers.

   Spans are kept in memory, up to [log_cap] of them, and written out at
   the end; self time, total time and call count are accumulated for every
   span, logged or not. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let enabled = ref false

(* -- span names ---------------------------------------------------------- *)

let names : string array ref = ref [||]
let ids : (string, int) Hashtbl.t = Hashtbl.create 64

let id name =
  match Hashtbl.find_opt ids name with
  | Some i -> i
  | None ->
      let i = Array.length !names in
      Hashtbl.replace ids name i;
      names := Array.append !names [| name |];
      i

let max_names = 128
let self_ns = Array.make max_names 0
let total_ns = Array.make max_names 0
let count = Array.make max_names 0

(* -- the open-span stack ------------------------------------------------- *)

let max_depth = 64
let st_id = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_log = Array.make max_depth (-1)
let depth = ref 0

(* -- the span log -------------------------------------------------------- *)

let log_cap = 20_000
let lg_id = Array.make log_cap 0
let lg_start = Array.make log_cap 0
let lg_end = Array.make log_cap 0
let lg_parent = Array.make log_cap (-1)
let logged = ref 0
let unlogged = ref 0

let enter i =
  let d = !depth in
  let slot =
    if !logged < log_cap then (
      let s = !logged in
      incr logged;
      lg_id.(s) <- i;
      lg_parent.(s) <- (if d > 0 then st_log.(d - 1) else -1);
      s)
    else (
      incr unlogged;
      -1)
  in
  st_id.(d) <- i;
  st_child.(d) <- 0;
  st_log.(d) <- slot;
  depth := d + 1;
  st_start.(d) <- now_ns ()

(* Close the innermost span; returns its duration in nanoseconds. *)
let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let i = st_id.(d) and dur = t - st_start.(d) in
  self_ns.(i) <- self_ns.(i) + dur - st_child.(d);
  total_ns.(i) <- total_ns.(i) + dur;
  count.(i) <- count.(i) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let s = st_log.(d) in
  if s >= 0 then (
    lg_start.(s) <- st_start.(d);
    lg_end.(s) <- t);
  dur

(* Attribute [ns] measured by the caller to [i], as a leaf span of the
   innermost open one (not logged). *)
let charge i ns =
  self_ns.(i) <- self_ns.(i) + ns;
  total_ns.(i) <- total_ns.(i) + ns;
  count.(i) <- count.(i) + 1;
  let d = !depth - 1 in
  if d >= 0 then st_child.(d) <- st_child.(d) + ns

(* [span name f] runs [f] inside a span when tracing is on. *)
let span i f =
  if not !enabled then f ()
  else (
    enter i;
    match f () with
    | v ->
        ignore (leave ());
        v
    | exception e ->
        ignore (leave ());
        raise e)

let self_s i = float_of_int self_ns.(i) /. 1e9
let total_s i = float_of_int total_ns.(i) /. 1e9
let calls i = count.(i)

(* Every span name with its self time, largest first. *)
let self_table () =
  Array.to_list !names
  |> List.mapi (fun i n -> (n, self_s i, total_s i, count.(i)))
  |> List.filter (fun (_, _, _, c) -> c > 0)
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)

let write_json path ~workload ~seed ~wall_s =
  let oc = open_out path in
  let b = Buffer.create (1 lsl 16) in
  let t0 = if !logged > 0 then lg_start.(0) else 0 in
  Printf.bprintf b
    "{\"schema\": \"perfbench-spans/1\", \"workload\": %S, \"seed\": %d,\n\
    \ \"wall_s\": %.6f, \"spans_logged\": %d, \"spans_unlogged\": %d,\n\
    \ \"self_s\": {" workload seed wall_s !logged !unlogged;
  List.iteri
    (fun k (n, s, _, c) ->
      Printf.bprintf b "%s\n  %S: {\"self_s\": %.6f, \"calls\": %d}"
        (if k = 0 then "" else ",") n s c)
    (self_table ());
  Buffer.add_string b "},\n \"spans\": [";
  for s = 0 to !logged - 1 do
    Printf.bprintf b "%s\n  [%S, %.3f, %.3f, %d]"
      (if s = 0 then "" else ",")
      !names.(lg_id.(s))
      (float_of_int (lg_start.(s) - t0) /. 1e3)
      (float_of_int (lg_end.(s) - t0) /. 1e3)
      lg_parent.(s)
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.output_buffer oc b;
  close_out oc

(* -- GC pauses, from Runtime_events ----------------------------------------- *)

(* Time the runtime spent in minor collections and major slices, read from
   the process's own Runtime_events ring once collection is started.  The
   ring is kept small (run.py sets OCAMLRUNPARAM=e=10: its file is about
   2 MB, where e=20 makes 1 GB), so the benchmark drains it ([tick]) every
   [poll_every] VM_SYS calls, and pauses it ([paused]) around the trace
   export, which allocates too much at once for it; events lost anyway
   during timed phases are counted in [lost]. *)
module Gc_pauses = struct
  let cursor = ref None
  let depth = ref 0
  let start = ref 0L
  let total_ns = ref 0L
  let dropped = ref 0
  let lost = ref 0
  let sp_poll = id "bench.gc_poll"

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let ts = Runtime_events.Timestamp.to_int64

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t ph ->
        if counted ph then (
          if !depth = 0 then start := ts t;
          incr depth))
      ~runtime_end:(fun _ t ph ->
        if counted ph && !depth > 0 then (
          decr depth;
          if !depth = 0 then
            total_ns := Int64.add !total_ns (Int64.sub (ts t) !start)))
      ~lost_events:(fun _ n -> dropped := !dropped + n)
      ()

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)

  let start_collecting () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let ticks = ref 0
  let poll_every = 16

  (* Once per timed VM_SYS call. *)
  let tick () =
    match !cursor with
    | None -> ()
    | Some _ ->
        incr ticks;
        if !ticks land (poll_every - 1) = 0 then span sp_poll poll

  (* Runs [f] with the ring paused: its collections are not counted (the
     caller times [f] on its own, collections included). *)
  let paused f =
    if !cursor = None then f ()
    else (
      poll ();
      Runtime_events.pause ();
      Fun.protect ~finally:Runtime_events.resume f)

  (* Pause time since the previous call, in ms; 0 until started.  With
     [~timed:false] (the start of a timed phase) events lost before it are
     forgotten; with [~timed:true] they are added to [lost]. *)
  let take ~timed =
    poll ();
    let v = Int64.to_float !total_ns /. 1e6 in
    total_ns := 0L;
    depth := 0;
    if timed then lost := !lost + !dropped;
    dropped := 0;
    v
end
