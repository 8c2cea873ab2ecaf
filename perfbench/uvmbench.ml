(* The benchmark program: one workload, one seed, both kernels.

   uvmbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]

   A run repeats {boot and set up UVM, run the stream, check; the same for
   BSD VM} until S seconds have passed and reports medians over the
   repetitions.  Simulated figures are the same in every repetition; the
   run fails if they are not.  With --trace 0 it prints the end-to-end
   metrics; with --trace 1 it alternates untraced and traced repetitions
   and prints the per-layer metrics.  The last line of standard output is
   the JSON result. *)

module W = Workload
module K = Kernel

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let out_dir = ref ""

let usage = "uvmbench --workload NAME --seed N --seconds S --trace 0|1"

let args =
  [
    ("--workload", Arg.Set_string workload, " fork-cow | paging | smp-observed");
    ("--seed", Arg.Set_int seed, " workload seed");
    ("--seconds", Arg.Set_float seconds, " how long to repeat the measurement");
    ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
    ("--out-dir", Arg.Set_string out_dir, " where a traced run writes its spans");
  ]

let now_s () = float_of_int (Probe.now_ns ()) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Float.Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    Float.Array.get sorted (max 0 (min (n - 1) k))

(* Mean of the slowest 1% of a sorted array.  The latency distribution has
   atoms at fixed costs, so its percentiles can read the same for every
   seed; the tail's mean moves with the work in it. *)
let top1pct_mean sorted =
  let n = Float.Array.length sorted in
  let k = max 1 (n / 100) in
  let s = ref 0.0 in
  for i = max 0 (n - k) to n - 1 do
    s := !s +. Float.Array.get sorted i
  done;
  !s /. float_of_int k

let sorted a =
  let a = Float.Array.copy a in
  Float.Array.sort compare a;
  a

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  let v = scan () in
  close_in ic;
  v

(* Peak RSS over the first [rss_reps] repetitions.  The heap keeps what
   it has grown to, so the high-water mark creeps up with every further
   repetition; read at a fixed count, it does not depend on how many
   repetitions a fast or slow host fits into the run. *)
let rss_reps = 5
let peak_rss_mb = ref None

(* -- one repetition -------------------------------------------------------- *)

type rep = {
  traced : bool;
  u : K.result;
  b : K.result;
  wall_s : float;
}

let sp_rep = Probe.id "rep"

let run_rep ~traced w =
  Probe.enabled := traced;
  let t0 = Probe.now_ns () in
  let u, b =
    Probe.span sp_rep (fun () ->
        let u = K.Uvm_k.run ~traced w in
        let b = K.Bsd_k.run ~traced w in
        (u, b))
  in
  let wall_s = float_of_int (Probe.now_ns () - t0) /. 1e9 in
  Probe.enabled := false;
  { traced; u; b; wall_s }

(* -- correctness ----------------------------------------------------------- *)

let problems reps =
  let first = List.hd reps in
  List.concat_map
    (fun r ->
      let own = r.u.K.problems @ r.b.K.problems in
      let differential =
        if r.u.K.pages = r.b.K.pages then []
        else [ "uvm and bsd read back different page contents" ]
      in
      let determinism =
        if r.u.K.digest = first.u.K.digest && r.b.K.digest = first.b.K.digest
        then []
        else [ "simulated state differs between repetitions" ]
      in
      own @ differential @ determinism)
    reps
  |> List.sort_uniq compare

(* -- metrics --------------------------------------------------------------- *)

let ops_per_s (r : K.result) = float_of_int r.K.calls /. r.K.timed_s

(* Host figures in reference-host seconds (see Calib). *)
let ref_ops_per_s (r : K.result) = ops_per_s r *. Calib.factor r.K.calib_ms
let ref_setup_s (r : K.result) = r.K.setup_s /. Calib.factor r.K.calib_ms

let kernels = [ ("uvm", fun r -> r.u); ("bsd", fun r -> r.b) ]

(* Timed calls attempted and failed, over both kernels and every
   repetition. *)
let totals reps =
  List.fold_left
    (fun (a, f) r -> (a + r.u.K.calls + r.b.K.calls, f + r.u.K.failed + r.b.K.failed))
    (0, 0) reps

let end_to_end reps =
  let first = List.hd reps in
  let per_kernel =
    List.concat_map
      (fun (k, get) ->
        let r0 = get first in
        let lat = sorted r0.K.latencies in
        [
          (k ^ ".ops_per_s", median (List.map (fun r -> ref_ops_per_s (get r)) reps), "1/s");
          (k ^ ".sim_s", r0.K.sim_s, "s");
          (k ^ ".sim_call_us_top1pct", top1pct_mean lat, "us");
        ])
      kernels
  in
  let attempted, failed = totals reps in
  per_kernel
  @ [
      ("setup_s", median (List.map (fun r -> ref_setup_s r.u +. ref_setup_s r.b) reps), "s");
      ("peak_rss_mb", Option.value !peak_rss_mb ~default:(vm_hwm_mb ()), "MB");
      ("completed_ratio", 1.0 -. (float_of_int failed /. float_of_int attempted), "ratio");
    ]

(* Per-layer figures every workload reports, zero where a layer is idle. *)
let layer_defaults =
  List.concat_map
    (fun k ->
      List.map
        (fun n -> k ^ "." ^ n)
        [ "smp.lock_wait_s"; "smp.line_bounces"; "smp.quanta"; "smp.top_class_wait_s" ])
    [ "uvm"; "bsd" ]
  @ [ "sim.export_ms"; "sim.export_bytes"; "sim.events_retained"; "sim.events_dropped" ]

let per_layer reps =
  let traced = List.filter (fun r -> r.traced) reps in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let nt = float_of_int (List.length traced) in
  let nu = float_of_int (max 1 (List.length untraced)) in
  let mean_u f = List.fold_left (fun s r -> s +. f r) 0.0 untraced /. nu in
  let gc f = mean_u (fun r -> f r.u.K.gc +. f r.b.K.gc) in
  let unit_of name =
    let ends s = String.ends_with ~suffix:s name in
    if ends "_ms" then "ms"
    else if ends "_s" then "s"
    else if ends "_us_p50" || ends "_us_p99" then "us"
    else if ends "_ns_mean" then "ns"
    else if ends "_ratio" || ends "per_call" || ends "per_write" then "ratio"
    else if ends "_bytes" then "B"
    else if ends "_mb" || ends "_kcall" then "MB"
    else if ends "_x" then "x"
    else if ends "ops_per_s_traced" || ends "ops_per_s_untraced" then "1/s"
    else "count"
  in
  let figures =
    List.concat_map (fun r -> r.u.K.layer @ r.b.K.layer) reps
    |> List.fold_left
         (fun acc (n, v) ->
           let prev = Option.value ~default:[] (List.assoc_opt n acc) in
           (n, v :: prev) :: List.remove_assoc n acc)
         (List.map (fun n -> (n, [])) layer_defaults)
    |> List.map (fun (n, vs) -> (n, if vs = [] then 0.0 else median vs))
  in
  let host_kinds = [ "touch"; "fork"; "destroy_vmspace"; "mmap"; "munmap" ] in
  let host k (h : K.host) get =
    let lat = sorted (get (List.hd reps)).K.latencies in
    let calls =
      List.concat_map
        (fun kind ->
          let i = ref 0 in
          Array.iteri (fun j n -> if n = kind then i := j) K.kinds;
          let s = sorted (K.Samples.to_array h.K.by_kind.(!i)) in
          [
            (Printf.sprintf "%s.%s.host_us_p50" k kind, pct s 0.50 /. 1e3);
            (Printf.sprintf "%s.%s.host_us_p99" k kind, pct s 0.99 /. 1e3);
            (Printf.sprintf "%s.%s.calls" k kind, float_of_int (Float.Array.length s) /. nt);
          ])
        host_kinds
    in
    let classes =
      List.concat
        (List.mapi
           (fun c cls ->
             let n = float_of_int h.K.class_calls.(c) in
             [
               (Printf.sprintf "%s.touch.%s.host_ns_mean" k cls, K.ratio h.K.class_ns.(c) n);
               (Printf.sprintf "%s.touch.%s.calls" k cls, n /. nt);
             ])
           (Array.to_list K.classes))
    in
    let pd_calls = float_of_int h.K.pd_calls in
    let ops f = median (List.map (fun r -> ops_per_s (get r)) f) in
    calls @ classes
    @ [
        (k ^ ".pdaemon.calls", pd_calls /. nt);
        (k ^ ".pdaemon.host_ms", h.K.pd_ns /. 1e6 /. nt);
        (k ^ ".pdaemon.pageouts_per_call", K.ratio h.K.pd_pageouts pd_calls);
        (k ^ ".sim_call_samples", float_of_int (get (List.hd reps)).K.calls);
        (k ^ ".sim_call_us_p50", pct lat 0.50);
        (k ^ ".sim_call_us_p99", pct lat 0.99);
        (k ^ ".ops_per_s_untraced", ops untraced);
        (k ^ ".ops_per_s_traced", ops traced);
        (k ^ ".trace_overhead_x", K.ratio (ops untraced) (ops traced));
      ]
  in
  let per_call_ms names =
    let sum f = List.fold_left (fun a n -> a +. f (Probe.id n)) 0.0 names in
    K.ratio (sum Probe.total_s *. 1e3) (sum (fun i -> float_of_int (Probe.calls i)))
  in
  let wall = List.fold_left (fun s r -> s +. r.wall_s) 0.0 traced in
  let self_sum = List.fold_left (fun s (_, v, _, _) -> s +. v) 0.0 (Probe.self_table ()) in
  let rows =
    host "uvm" K.Uvm_k.host (fun r -> r.u)
    @ host "bsd" K.Bsd_k.host (fun r -> r.b)
    @ figures
    @ [
        ("vmiface.boot_ms", per_call_ms [ "uvm.boot"; "bsd.boot" ]);
        ("vfs.create_file_ms", per_call_ms [ "vfs.create_file" ]);
        ("check.audit_ms", per_call_ms [ "uvm.audit"; "bsd.audit" ]);
        ("gc.minor_mb_per_kcall",
          K.ratio (gc (fun g -> g.K.minor_mb))
            (mean_u (fun r -> float_of_int (r.u.K.calls + r.b.K.calls)) /. 1e3));
        ("gc.promoted_mb", gc (fun g -> g.K.promoted_mb));
        ("gc.major_collections", gc (fun g -> g.K.majors));
        ("gc.top_heap_mb",
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8) /. 1048576.0);
        ("gc.pause_ms", gc (fun g -> g.K.pause_ms));
        ("calib_ms", median (List.concat_map (fun r -> [ r.u.K.calib_ms; r.b.K.calib_ms ]) reps));
        ("trace.wall_s", wall);
        ("trace.residual_ratio", K.ratio (wall -. self_sum) wall);
        ("trace.bench_self_ratio", K.ratio (Probe.self_s sp_rep) wall);
      ]
  in
  List.map (fun (n, v) -> (n, v, unit_of n)) rows

(* -- output ---------------------------------------------------------------- *)

let json_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (n, v, unit) ->
      let v = if Float.is_finite v then v else 0.0 in
      Printf.bprintf b "%s%S: {\"value\": %.17g, \"unit\": %S}"
        (if i = 0 then "" else ", ") n v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  Arg.parse (Arg.align args) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if not (List.mem !workload W.names) then (
    prerr_endline ("uvmbench: --workload must be one of " ^ String.concat ", " W.names);
    exit 2);
  let traced_run = !trace = 1 in
  if traced_run then Probe.Gc_pauses.start_collecting ();
  let w = W.make !workload ~seed:!seed in
  let deadline = now_s () +. !seconds in
  let rec loop i acc =
    let traced = traced_run && i mod 2 = 1 in
    let acc = run_rep ~traced w :: acc in
    if i + 1 = rss_reps then peak_rss_mb := Some (vm_hwm_mb ());
    let have_traced = List.exists (fun r -> r.traced) acc in
    if now_s () < deadline || (traced_run && not have_traced) then loop (i + 1) acc
    else List.rev acc
  in
  let reps = loop 0 [] in
  let first = List.hd reps in
  Printf.printf "workload %s seed %d: %d repetitions (%d traced), %d calls per kernel\n"
    w.W.name !seed (List.length reps)
    (List.length (List.filter (fun r -> r.traced) reps))
    (W.calls w);
  Printf.printf "digest %s uvm %s\n" w.W.name first.u.K.digest;
  Printf.printf "digest %s bsd %s\n" w.W.name first.b.K.digest;
  let problems = problems reps in
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) problems;
  let attempted, failed = totals reps in
  let metrics =
    if traced_run then (
      let m = per_layer reps in
      let wall = List.fold_left (fun s r -> if r.traced then s +. r.wall_s else s) 0.0 reps in
      Printf.printf "span self times over %.3f s of traced repetitions:\n" wall;
      List.iter
        (fun (n, s, _, c) -> Printf.printf "  %-24s %9.3f s %9d spans\n" n s c)
        (Probe.self_table ());
      Printf.printf "gc pause events lost in timed phases: %d\n" !Probe.Gc_pauses.lost;
      if !out_dir <> "" then
        Probe.write_json
          (Filename.concat !out_dir (Printf.sprintf "spans-%s.json" w.W.name))
          ~workload:w.W.name ~seed:!seed ~wall_s:wall;
      m)
    else end_to_end reps
  in
  print_endline (json_result ~correct:(problems = []) ~attempted ~failed metrics)
