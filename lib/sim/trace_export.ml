(** Exporters for the observability layer.

    A {!source} bundles one traced machine's event history, counters and
    latency histograms under a display label ("UVM", "BSD VM").  The
    exporters consume a list of sources so one run of an experiment —
    which boots both VM systems, possibly several times — lands in a
    single artifact:

    - {!chrome_json}: Chrome trace-event JSON, loadable in Perfetto or
      [chrome://tracing].  Each source becomes a process, each subsystem
      a thread; spans are complete ("X") events, instants are "i".
    - {!snapshot_json}: counters + histogram summaries, machine-readable.
    - {!pp_dump}: flat human-readable event listing.
    - {!print_stats}: the per-label counter/percentile tables behind the
      CLI's [--stats] flag.

    JSON is emitted by hand: the toolchain deliberately has no JSON
    dependency, and the two fixed schemas here do not justify one. *)

type source = {
  mutable label : string;
  hist : Hist.t;
  stats : Stats.t;
  latencies : Histogram.set;
  lifecycle : Lifecycle.t;
  spans : Span.t;
  series : Timeseries.t;
  locks : Lockstat.t option;  (* the machine's lock registry *)
  mutable sync : unit -> unit;
      (* refresh the gauge fields of [stats] from the live machine;
         installed by Machine.boot, called before any counter export *)
}

(* -- JSON primitives --------------------------------------------------- *)

(* The writers below run once per exported event, so they append straight
   into the buffer: no [Printf], and no intermediate strings. *)

let hex_digits = "0123456789abcdef"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let json_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 0xf]
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Decimal, as [%d] writes it. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let pow5 = [| 1; 5; 25; 125 |]
let pow10 = [| 1; 10; 100; 1000 |]

(* [v] as [Printf.sprintf "%.*f" decimals v] writes it, for [decimals] in
   0..3, computed exactly on the float's bits.  With [v = m * 2^e]
   ([m] the 53-bit significand), [v * 10^d = m * 5^d * 2^(e+d)]: one
   shift of [m * 5^d], rounded half to even on the exact remainder, as
   C's printf rounds the exact binary value.  Below 2^51 the exponent is
   at most -2, so [m * 5^d] shifted left by at most one place stays
   within 62 bits; larger and non-finite values take the C formatter. *)
let json_fixed buf ~decimals v =
  if not (Float.abs v < 0x1p51) then
    Buffer.add_string buf (Printf.sprintf "%.*f" decimals v)
  else begin
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let frac = Int64.to_int bits land ((1 lsl 52) - 1) in
    let m, e =
      if biased = 0 then (frac, -1074) else (frac lor (1 lsl 52), biased - 1075)
    in
    let x = m * pow5.(decimals) in
    let shift = -(e + decimals) in
    let q =
      if shift <= 0 then x lsl (-shift)
      else if shift > 60 then 0 (* x < 2^60: below one half, rounds to 0 *)
      else begin
        let q = x lsr shift in
        let r = x land ((1 lsl shift) - 1) in
        let half = 1 lsl (shift - 1) in
        if r > half || (r = half && q land 1 = 1) then q + 1 else q
      end
    in
    (* printf keeps the sign of a negative value that rounds to zero. *)
    if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
    add_digits buf (q / pow10.(decimals));
    if decimals > 0 then begin
      Buffer.add_char buf '.';
      let f = q mod pow10.(decimals) in
      let p = ref (pow10.(decimals) / 10) in
      while !p > 0 do
        Buffer.add_char buf
          (Char.unsafe_chr (Char.code '0' + (f / !p mod 10)));
        p := !p / 10
      done
    end
  end

(* Microsecond values need no more than nanosecond precision; %.17g
   would round-trip but is noisy. *)
let json_float buf v =
  if Float.is_finite v then json_fixed buf ~decimals:3 v
  else Buffer.add_string buf "0"

(* A literal key (with its leading separator) and its value. *)
let int_field buf key n =
  Buffer.add_string buf key;
  add_int buf n

let float_field buf key v =
  Buffer.add_string buf key;
  json_float buf v

let json_sep buf first = if !first then first := false else Buffer.add_char buf ','

(* -- Chrome trace-event format ----------------------------------------- *)

let subsys_tid s = 1 + Hist.subsystem_index s

let chrome_event buf ~pid (e : Hist.event) =
  Buffer.add_string buf "{\"name\":";
  json_string buf e.name;
  Buffer.add_string buf ",\"cat\":";
  json_string buf (Hist.subsystem_name e.subsys);
  int_field buf ",\"pid\":" pid;
  int_field buf ",\"tid\":" (subsys_tid e.subsys);
  float_field buf ",\"ts\":" e.ts;
  if e.dur > 0.0 then float_field buf ",\"ph\":\"X\",\"dur\":" e.dur
  else Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\"";
  Buffer.add_string buf ",\"args\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      json_sep buf first;
      json_string buf k;
      Buffer.add_char buf ':';
      json_string buf v)
    e.detail;
  Buffer.add_string buf "}}"

let chrome_metadata buf ~pid ~tid ~name ~value =
  int_field buf "{\"ph\":\"M\",\"pid\":" pid;
  int_field buf ",\"tid\":" tid;
  Buffer.add_string buf ",\"name\":";
  json_string buf name;
  Buffer.add_string buf ",\"args\":{\"name\":";
  json_string buf value;
  Buffer.add_string buf "}}"

(* Spans land on their own tracks, one per span subsystem, numbered
   from 100 to stay clear of the Hist subsystem tids.  Flow arrows
   ("s"/"f" pairs keyed by the child's span id) link each child back to
   its parent so Perfetto draws the causal tree across tracks. *)
let chrome_flow buf ~pid ~tid ~id ~ts ~finish =
  Buffer.add_string buf
    (if finish then "{\"name\":\"cause\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\""
     else "{\"name\":\"cause\",\"cat\":\"span\",\"ph\":\"s\"");
  int_field buf ",\"id\":" id;
  int_field buf ",\"pid\":" pid;
  int_field buf ",\"tid\":" tid;
  float_field buf ",\"ts\":" ts;
  Buffer.add_string buf ",\"args\":{}}"

let chrome_spans buf ~pid ~first spans =
  (* Track tids in order of first appearance. *)
  let tids = Hashtbl.create 16 in
  let tracks = ref [] in
  List.iter
    (fun (sp : Span.span) ->
      if not (Hashtbl.mem tids sp.ssubsys) then begin
        Hashtbl.replace tids sp.ssubsys (100 + Hashtbl.length tids);
        tracks := sp.ssubsys :: !tracks
      end)
    spans;
  let track_tid s = Hashtbl.find tids s in
  List.iter
    (fun s ->
      json_sep buf first;
      chrome_metadata buf ~pid ~tid:(track_tid s) ~name:"thread_name"
        ~value:("span:" ^ s))
    (List.rev !tracks);
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Span.span) -> Hashtbl.replace by_id sp.sid sp) spans;
  List.iter
    (fun (sp : Span.span) ->
      json_sep buf first;
      Buffer.add_string buf "{\"name\":";
      json_string buf sp.sname;
      int_field buf ",\"cat\":\"span\",\"pid\":" pid;
      int_field buf ",\"tid\":" (track_tid sp.ssubsys);
      float_field buf ",\"ts\":" sp.sts;
      float_field buf ",\"ph\":\"X\",\"dur\":" (Float.max sp.sdur 0.0);
      int_field buf ",\"args\":{\"trace\":" sp.strace;
      int_field buf ",\"span\":" sp.sid;
      int_field buf ",\"parent\":" sp.sparent;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          json_string buf k;
          Buffer.add_char buf ':';
          json_string buf v)
        sp.sdetail;
      Buffer.add_string buf "}}";
      match Hashtbl.find_opt by_id sp.sparent with
      | None -> ()  (* root, or the parent was overwritten in the ring *)
      | Some parent ->
          json_sep buf first;
          chrome_flow buf ~pid ~tid:(track_tid parent.ssubsys) ~id:sp.sid
            ~ts:sp.sts ~finish:false;
          json_sep buf first;
          chrome_flow buf ~pid ~tid:(track_tid sp.ssubsys) ~id:sp.sid
            ~ts:sp.sts ~finish:true)
    spans

let chrome_json buf sources =
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun i src ->
      let pid = i + 1 in
      json_sep buf first;
      chrome_metadata buf ~pid ~tid:0 ~name:"process_name" ~value:src.label;
      List.iter
        (fun s ->
          json_sep buf first;
          chrome_metadata buf ~pid ~tid:(subsys_tid s) ~name:"thread_name"
            ~value:(Hist.subsystem_name s))
        Hist.all_subsystems;
      List.iter
        (fun e ->
          json_sep buf first;
          chrome_event buf ~pid e)
        (Hist.events src.hist);
      chrome_spans buf ~pid ~first (Span.spans src.spans))
    sources;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n"

(* -- per-label aggregation --------------------------------------------- *)

(* Several boots of the same system (a sweep experiment) share a label;
   exporters fold them into one logical system. *)
type agg = {
  agg_label : string;
  counters : (string * float) list;  (* declaration order, summed *)
  hists : (string * Histogram.t) list;  (* merged, sorted by name *)
  agg_life : Lifecycle.t;  (* merged ledger analytics *)
  agg_recorded : int;
  agg_dropped : int;
}

let aggregate sources =
  List.iter (fun s -> s.sync ()) sources;
  let labels =
    List.fold_left
      (fun acc s -> if List.mem s.label acc then acc else acc @ [ s.label ])
      [] sources
  in
  List.map
    (fun label ->
      let group = List.filter (fun s -> s.label = label) sources in
      let counters =
        match group with
        | [] -> []
        | first :: rest ->
            let sum = Stats.snapshot first.stats in
            List.iter (fun s -> Stats.add ~into:sum s.stats) rest;
            Stats.to_rows sum
      in
      let hset = Histogram.create_set () in
      List.iter
        (fun s ->
          List.iter
            (fun (name, h) -> Histogram.merge ~into:(Histogram.get hset name) h)
            (Histogram.rows s.latencies))
        group;
      let life = Lifecycle.create () in
      List.iter (fun s -> Lifecycle.merge ~into:life s.lifecycle) group;
      {
        agg_label = label;
        counters;
        hists = Histogram.rows hset;
        agg_life = life;
        agg_recorded =
          List.fold_left (fun n s -> n + Hist.recorded s.hist) 0 group;
        agg_dropped = List.fold_left (fun n s -> n + Hist.dropped s.hist) 0 group;
      })
    labels

(* -- stats/histogram snapshot ------------------------------------------ *)

let json_hist buf h =
  (* Every figure as %.3f writes it, non-finite ones included. *)
  let fixed key v =
    Buffer.add_string buf key;
    json_fixed buf ~decimals:3 v
  in
  int_field buf "{\"count\":" (Histogram.count h);
  fixed ",\"sum\":" (Histogram.sum h);
  fixed ",\"mean\":" (Histogram.mean h);
  fixed ",\"min\":" (Histogram.min_value h);
  fixed ",\"max\":" (Histogram.max_value h);
  fixed ",\"p50\":" (Histogram.p50 h);
  fixed ",\"p95\":" (Histogram.p95 h);
  fixed ",\"p99\":" (Histogram.p99 h);
  Buffer.add_char buf '}'

let snapshot_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-stats/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun a ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf a.agg_label;
      Buffer.add_string buf ",\"counters\":{";
      let first = ref true in
      List.iter
        (fun (name, v) ->
          if v <> 0.0 then begin
            json_sep buf first;
            json_string buf name;
            Buffer.add_char buf ':';
            json_float buf v
          end)
        a.counters;
      Buffer.add_string buf "},\"histograms\":{";
      let first = ref true in
      List.iter
        (fun (name, h) ->
          json_sep buf first;
          json_string buf name;
          Buffer.add_char buf ':';
          json_hist buf h)
        a.hists;
      int_field buf "},\"trace\":{\"recorded\":" a.agg_recorded;
      int_field buf ",\"dropped\":" a.agg_dropped;
      Buffer.add_string buf "}}")
    (aggregate sources);
  Buffer.add_string buf "]}\n"

(* -- span export -------------------------------------------------------- *)

let json_span buf (sp : Span.span) =
  int_field buf "{\"span\":" sp.sid;
  int_field buf ",\"trace\":" sp.strace;
  int_field buf ",\"parent\":" sp.sparent;
  Buffer.add_string buf ",\"name\":";
  json_string buf sp.sname;
  Buffer.add_string buf ",\"subsys\":";
  json_string buf sp.ssubsys;
  float_field buf ",\"ts\":" sp.sts;
  if sp.sdur >= 0.0 then float_field buf ",\"dur\":" sp.sdur;
  Buffer.add_string buf ",\"detail\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      json_sep buf first;
      json_string buf k;
      Buffer.add_char buf ':';
      json_string buf v)
    sp.sdetail;
  Buffer.add_string buf "}}"

(* Spans are exported per source, not folded per label: span and trace
   ids are only unique within one collector, so merging sweeps under a
   label would alias unrelated trees. *)
let spans_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-spans/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun src ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf src.label;
      Buffer.add_string buf ",\"spans\":[";
      let first = ref true in
      List.iter
        (fun sp ->
          json_sep buf first;
          json_span buf sp)
        (Span.spans src.spans);
      (* Spans still open at export time: the active causal tree,
         outermost first (what a crash artifact wants). *)
      Buffer.add_string buf "],\"open\":[";
      let first = ref true in
      List.iter
        (fun sp ->
          json_sep buf first;
          json_span buf sp)
        (Span.open_spans src.spans);
      int_field buf "],\"recorded\":" (Span.recorded src.spans);
      int_field buf ",\"dropped\":" (Span.dropped src.spans);
      Buffer.add_char buf '}')
    sources;
  Buffer.add_string buf "]}\n"

(* -- lock observatory export -------------------------------------------- *)

let json_lock_class buf ~cpus ~seed reg (cv : Lockstat.class_view) =
  Buffer.add_string buf "{\"class\":";
  json_string buf cv.Lockstat.cv_cls;
  int_field buf ",\"instances\":" cv.Lockstat.cv_instances;
  int_field buf ",\"acquires\":" cv.Lockstat.cv_acquires;
  int_field buf ",\"reads\":" cv.Lockstat.cv_reads;
  int_field buf ",\"writes\":" cv.Lockstat.cv_writes;
  Buffer.add_string buf ",\"hold_us\":";
  json_hist buf cv.Lockstat.cv_hold;
  Buffer.add_string buf ",\"read_hold_us\":";
  json_hist buf cv.Lockstat.cv_read_hold;
  Buffer.add_string buf ",\"write_hold_us\":";
  json_hist buf cv.Lockstat.cv_write_hold;
  float_field buf ",\"max_hold_us\":" cv.Lockstat.cv_max_hold_us;
  Buffer.add_string buf ",\"by_subsys\":[";
  let first = ref true in
  List.iter
    (fun (subsys, holds, total) ->
      json_sep buf first;
      Buffer.add_string buf "{\"subsys\":";
      json_string buf subsys;
      int_field buf ",\"holds\":" holds;
      float_field buf ",\"total_us\":" total;
      Buffer.add_string buf "}")
    cv.Lockstat.cv_by_subsys;
  Buffer.add_string buf "],\"contention\":";
  (match Lockstat.project reg ~cls:cv.Lockstat.cv_cls ~cpus ~seed with
  | None -> Buffer.add_string buf "null"
  | Some p ->
      int_field buf "{\"cpus\":" p.Lockstat.pj_cpus;
      int_field buf ",\"events\":" p.Lockstat.pj_events;
      float_field buf ",\"wait_us\":" p.Lockstat.pj_wait_us;
      float_field buf ",\"mean_wait_us\":" p.Lockstat.pj_mean_wait_us;
      float_field buf ",\"max_wait_us\":" p.Lockstat.pj_max_wait_us;
      int_field buf ",\"bounces\":" p.Lockstat.pj_bounces;
      float_field buf ",\"utilization\":" p.Lockstat.pj_utilization;
      Buffer.add_string buf "}");
  Buffer.add_string buf "}"

(* The "systems" array of the uvm-sim-lockstat/1 schema: sources sharing
   a label (several boots of one system in a sweep) are merged into one
   registry — histograms, attribution and order edges sum; the
   contention replay then models all recorded streams hitting one
   machine. *)
let lockstat_systems buf ?(cpus = 4) ?(seed = 42) sources =
  let labels =
    List.fold_left
      (fun acc s -> if List.mem s.label acc then acc else acc @ [ s.label ])
      [] sources
  in
  Buffer.add_char buf '[';
  let first_sys = ref true in
  List.iter
    (fun label ->
      let group = List.filter (fun s -> s.label = label) sources in
      let regs = List.filter_map (fun s -> s.locks) group in
      let merged = Lockstat.create ~now:(fun () -> 0.0) () in
      List.iter (fun r -> Lockstat.merge ~into:merged r) regs;
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf label;
      Buffer.add_string buf ",\"classes\":[";
      let first = ref true in
      List.iter
        (fun cv ->
          json_sep buf first;
          json_lock_class buf ~cpus ~seed merged cv)
        (Lockstat.views merged);
      Buffer.add_string buf "],\"order_edges\":[";
      let first = ref true in
      List.iter
        (fun (a, b, n) ->
          json_sep buf first;
          Buffer.add_string buf "{\"from\":";
          json_string buf a;
          Buffer.add_string buf ",\"to\":";
          json_string buf b;
          int_field buf ",\"count\":" n;
          Buffer.add_char buf '}')
        (Lockstat.order_edges merged);
      Buffer.add_string buf "],\"cycles\":[";
      let first = ref true in
      List.iter
        (fun cyc ->
          json_sep buf first;
          Buffer.add_char buf '[';
          let fc = ref true in
          List.iter
            (fun cls ->
              json_sep buf fc;
              json_string buf cls)
            cyc;
          Buffer.add_char buf ']')
        (Lockstat.cycles merged);
      (* Locks still held right now (crash artifacts): per live
         registry, innermost first — merge does not carry hold state. *)
      Buffer.add_string buf "],\"held\":[";
      let first = ref true in
      List.iter
        (fun reg ->
          List.iter
            (fun (cls, name) ->
              json_sep buf first;
              Buffer.add_string buf "{\"class\":";
              json_string buf cls;
              Buffer.add_string buf ",\"instance\":";
              json_string buf name;
              Buffer.add_string buf "}")
            (Lockstat.held reg))
        regs;
      Buffer.add_string buf "]}")
    labels;
  Buffer.add_char buf ']'

let lockstat_json buf ?(cpus = 4) ?(seed = 42) sources =
  int_field buf "{\"schema\":\"uvm-sim-lockstat/1\",\"cpus\":" cpus;
  Buffer.add_string buf ",\"systems\":";
  lockstat_systems buf ~cpus ~seed sources;
  Buffer.add_string buf "}\n"

(* -- time-series export ------------------------------------------------- *)

let metrics_json buf sources =
  List.iter (fun s -> s.sync ()) sources;
  Buffer.add_string buf "{\"schema\":\"uvm-sim-metrics/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun src ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf src.label;
      Buffer.add_string buf ",\"columns\":[";
      let first = ref true in
      List.iter
        (fun c ->
          json_sep buf first;
          json_string buf c)
        (Timeseries.columns src.series);
      Buffer.add_string buf "],\"samples\":[";
      let first = ref true in
      List.iter
        (fun (s : Timeseries.sample) ->
          json_sep buf first;
          Buffer.add_string buf "{\"ts\":";
          json_float buf s.s_ts;
          Buffer.add_string buf ",\"values\":[";
          let fv = ref true in
          Array.iter
            (fun v ->
              json_sep buf fv;
              json_float buf v)
            s.s_values;
          Buffer.add_string buf "]}")
        (Timeseries.samples src.series);
      Buffer.add_string buf "],\"warnings\":[";
      let first = ref true in
      List.iter
        (fun (w : Timeseries.warning) ->
          json_sep buf first;
          Buffer.add_string buf "{\"ts\":";
          json_float buf w.w_ts;
          Buffer.add_string buf ",\"rule\":";
          json_string buf w.w_rule;
          Buffer.add_string buf ",\"detail\":{";
          let fd = ref true in
          List.iter
            (fun (k, v) ->
              json_sep buf fd;
              json_string buf k;
              Buffer.add_char buf ':';
              json_string buf v)
            w.w_detail;
          Buffer.add_string buf "}}")
        (Timeseries.warnings src.series);
      Buffer.add_string buf "]}")
    sources;
  Buffer.add_string buf "]}\n"

(* -- human-readable ----------------------------------------------------- *)

let pp_dump fmt sources =
  List.iter
    (fun src ->
      Format.fprintf fmt "=== %s: %d events (%d dropped) ===@." src.label
        (Hist.retained src.hist) (Hist.dropped src.hist);
      List.iter
        (fun (e : Hist.event) ->
          Format.fprintf fmt "%12.1f us  %-8s %-16s" e.ts
            (Hist.subsystem_name e.subsys) e.name;
          if e.dur > 0.0 then Format.fprintf fmt " dur=%.1fus" e.dur;
          List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) e.detail;
          Format.fprintf fmt "@.")
        (Hist.events src.hist))
    sources

let print_stats sources =
  List.iter
    (fun a ->
      Printf.printf "\n== %s: counters ==\n" a.agg_label;
      List.iter
        (fun (name, v) ->
          if v <> 0.0 then
            if Float.is_integer v then
              Printf.printf "  %-26s %12.0f\n" name v
            else Printf.printf "  %-26s %12.1f\n" name v)
        a.counters;
      if a.hists <> [] then begin
        Printf.printf "== %s: latency percentiles (simulated us) ==\n"
          a.agg_label;
        Printf.printf "  %-22s %8s %10s %10s %10s %10s %10s\n" "series" "count"
          "mean" "p50" "p95" "p99" "max";
        List.iter
          (fun (name, h) ->
            Printf.printf "  %-22s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n"
              name (Histogram.count h) (Histogram.mean h) (Histogram.p50 h)
              (Histogram.p95 h) (Histogram.p99 h) (Histogram.max_value h))
          a.hists
      end;
      if a.agg_recorded > 0 then
        Printf.printf "== %s: trace: %d events recorded, %d dropped ==\n"
          a.agg_label a.agg_recorded a.agg_dropped)
    (aggregate sources)

(* -- efficacy report (ledger-derived) ----------------------------------- *)

let all_madv =
  [ Lifecycle.Madv_normal; Lifecycle.Madv_random; Lifecycle.Madv_sequential ]

let all_fills =
  [
    Lifecycle.Fill_zero;
    Lifecycle.Fill_file;
    Lifecycle.Fill_pagein;
    Lifecycle.Fill_cow;
    Lifecycle.Fill_wire;
  ]

let hit_rate used wasted =
  let resolved = used + wasted in
  if resolved = 0 then 0.0
  else 100.0 *. float_of_int used /. float_of_int resolved

let report_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-report/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun a ->
      let life = a.agg_life in
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf a.agg_label;
      Buffer.add_string buf ",\"fault_ahead\":{";
      let first = ref true in
      List.iter
        (fun m ->
          json_sep buf first;
          json_string buf (Lifecycle.madv_name m);
          let used = Lifecycle.fa_used life m
          and wasted = Lifecycle.fa_wasted life m in
          int_field buf ":{\"mapped\":" (Lifecycle.fa_mapped life m);
          int_field buf ",\"used\":" used;
          int_field buf ",\"wasted\":" wasted;
          Buffer.add_string buf ",\"hit_rate\":";
          json_fixed buf ~decimals:1 (hit_rate used wasted);
          Buffer.add_char buf '}')
        all_madv;
      Buffer.add_string buf "},\"fills\":{";
      let first = ref true in
      List.iter
        (fun k ->
          json_sep buf first;
          json_string buf (Lifecycle.fill_name k);
          int_field buf ":" (Lifecycle.fill_count life k))
        all_fills;
      Buffer.add_string buf "},\"distributions\":{";
      let first = ref true in
      List.iter
        (fun (name, h) ->
          json_sep buf first;
          json_string buf name;
          Buffer.add_char buf ':';
          json_hist buf h)
        (Lifecycle.hist_rows life);
      int_field buf "},\"fragmentation\":{\"live_entries\":"
        (Lifecycle.frag_live life);
      int_field buf ",\"peak_entries\":" (Lifecycle.frag_peak life);
      int_field buf "},\"ledger\":{\"illegal_transitions\":"
        (Lifecycle.illegal_transitions life);
      Buffer.add_string buf "}}")
    (aggregate sources);
  Buffer.add_string buf "]}\n"

(* Side-by-side human tables: one column per aggregated label. *)
let print_report sources =
  let aggs = aggregate sources in
  if aggs <> [] then begin
    let col v = Printf.sprintf "%14s" v in
    let header title =
      Printf.printf "\n== %s ==\n%-34s" title "";
      List.iter (fun a -> print_string (col a.agg_label)) aggs;
      print_newline ()
    in
    let row name value =
      Printf.printf "%-34s" name;
      List.iter (fun a -> print_string (col (value a.agg_life))) aggs;
      print_newline ()
    in
    let int_row name value = row name (fun l -> string_of_int (value l)) in
    header "fault-ahead efficacy (per madvise mode)";
    List.iter
      (fun m ->
        let n = Lifecycle.madv_name m in
        int_row
          (Printf.sprintf "%s: neighbours premapped" n)
          (fun l -> Lifecycle.fa_mapped l m);
        int_row
          (Printf.sprintf "%s: used (fault avoided)" n)
          (fun l -> Lifecycle.fa_used l m);
        int_row
          (Printf.sprintf "%s: wasted (mapped in vain)" n)
          (fun l -> Lifecycle.fa_wasted l m);
        row
          (Printf.sprintf "%s: hit rate" n)
          (fun l ->
            Printf.sprintf "%.1f%%"
              (hit_rate (Lifecycle.fa_used l m) (Lifecycle.fa_wasted l m))))
      all_madv;
    header "fault-in kinds (ledger fills)";
    List.iter
      (fun k ->
        int_row (Lifecycle.fill_name k) (fun l -> Lifecycle.fill_count l k))
      all_fills;
    let dist (name, title) =
      let h l = List.assoc name (Lifecycle.hist_rows l) in
      header title;
      int_row "samples" (fun l -> Histogram.count (h l));
      row "mean" (fun l -> Printf.sprintf "%.1f" (Histogram.mean (h l)));
      List.iter
        (fun (pname, p) ->
          row pname (fun l ->
              Printf.sprintf "%.1f" (Histogram.percentile (h l) p)))
        [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ];
      row "max" (fun l -> Printf.sprintf "%.1f" (Histogram.max_value (h l)))
    in
    dist ("cluster_size_pages", "pageout cluster size (pages/write)");
    dist ("cluster_slot_runs", "pageout cluster contiguity (slot runs)");
    dist ("reassign_distance_slots", "swap-slot reassignment distance");
    dist ("residency_us", "frame residency time (us)");
    dist ("interfault_us", "per-frame inter-fault interval (us)");
    dist ("live_map_entries", "map-entry fragmentation census");
    header "map entries / ledger";
    int_row "live entries now" Lifecycle.frag_live;
    int_row "peak live entries" Lifecycle.frag_peak;
    int_row "illegal ledger transitions" Lifecycle.illegal_transitions
  end
