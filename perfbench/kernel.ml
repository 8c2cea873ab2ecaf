(* One workload on one kernel: boot, build the initial state, run the timed
   calls, then digest the simulated state and check the outputs.

   Everything is read through public surfaces: the VM_SYS calls, counters
   by name through [Sim.Stats.to_rows], SMP figures through [Sim.Smp]'s
   accessors and disk figures through [Sim.Disk]'s.  With [traced] the
   benchmark also opens a host span around each of those calls, classifies
   each touch by its counter delta and wraps the pagedaemon from outside
   through [Physmem.set_pagedaemon]. *)

module Machine = Vmiface.Machine
module Vt = Vmiface.Vmtypes
module W = Workload

module type KERNEL = sig
  include Vmiface.Vm_sig.VM_SYS

  val tag : string  (** metric prefix: "uvm" or "bsd" *)

  val pagedaemon : sys -> unit
  (** The kernel's pageout routine, as its boot installs it. *)
end

(* Call kinds, as named in the per-layer metrics. *)
let kinds =
  [| "new_vmspace"; "mmap"; "munmap"; "fork"; "destroy_vmspace"; "touch";
     "write_bytes"; "read_bytes" |]

let kind_of = function
  | W.Spawn _ -> 0
  | W.Mmap _ -> 1
  | W.Munmap _ -> 2
  | W.Fork _ -> 3
  | W.Exit _ -> 4
  | W.Touch _ -> 5
  | W.Write _ -> 6
  | W.Read _ -> 7

(* Fault classes of a touch, from the counters it moved. *)
let classes = [| "resident"; "zero_fill"; "cow"; "pagein" |]

(* Growable sample buffers. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.make 1024 0.0; n = 0 }

  let push t x =
    if t.n = Float.Array.length t.a then (
      let b = Float.Array.make (2 * t.n) 0.0 in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b);
    Float.Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let to_array t = Float.Array.sub t.a 0 t.n
end

(* Host-time figures gathered by a traced run, kept across repetitions. *)
type host = {
  by_kind : Samples.t array;  (** ns per call, timed phase *)
  class_ns : float array;
  class_calls : int array;
  mutable pd_calls : int;
  mutable pd_ns : float;
  mutable pd_pageouts : float;
}

let new_host () =
  {
    by_kind = Array.init (Array.length kinds) (fun _ -> Samples.create ());
    class_ns = Array.make (Array.length classes) 0.0;
    class_calls = Array.make (Array.length classes) 0;
    pd_calls = 0;
    pd_ns = 0.0;
    pd_pageouts = 0.0;
  }

(* Runtime figures of a timed phase. *)
type gc = { minor_mb : float; promoted_mb : float; majors : float; pause_ms : float }

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) ~pause_ms =
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  {
    minor_mb = mb (g1.Gc.minor_words -. g0.Gc.minor_words);
    promoted_mb = mb (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    pause_ms;
  }

type result = {
  calls : int;  (** timed calls attempted *)
  failed : int;  (** timed calls that raised Segv or Invalid_argument *)
  setup_s : float;  (** host: boot and initial state *)
  timed_s : float;  (** host: the timed phase *)
  calib_ms : float;  (** {!Calib.run} just before and after the timed phase *)
  sim_s : float;
  latencies : Float.Array.t;  (** simulated µs per timed call *)
  digest : string;
  problems : string list;  (** correctness failures *)
  pages : string array;  (** digest of every page the checks read back *)
  layer : (string * float) list;  (** per-layer figures of this run *)
  gc : gc;  (** the timed phase *)
}

let row rows name =
  match List.assoc_opt name rows with
  | Some v -> v
  | None -> invalid_arg ("perfbench: no counter named " ^ name)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The counters a touch's class is read from, by name. *)
let class_counters = [| "pageins"; "cow_copies"; "cow_reuses"; "pages_zeroed" |]

let class_snapshot stats =
  let rows = Sim.Stats.to_rows stats in
  Array.map (row rows) class_counters

let classify before after =
  let moved i = after.(i) > before.(i) in
  if moved 0 then 3 else if moved 1 || moved 2 then 2 else if moved 3 then 1
  else 0

(* A simulated-state digest: the simulated time, every per-call latency and
   the whole counter table, bit for bit. *)
let digest ~sim_s ~latencies ~rows ~extra =
  let b = Buffer.create (8 * Float.Array.length latencies + 4096) in
  let f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  f sim_s;
  Float.Array.iter f latencies;
  List.iter
    (fun (n, v) ->
      Buffer.add_string b n;
      f v)
    (rows @ extra);
  Digest.to_hex (Digest.string (Buffer.contents b))

module Make (K : KERNEL) = struct
  let sp name = Probe.id (K.tag ^ "." ^ name)
  let sp_kind = Array.map sp kinds
  let sp_boot = sp "boot"
  let sp_setup = sp "setup"
  let sp_pdaemon = sp "pdaemon"
  let sp_audit = sp "audit"
  let sp_checks = sp "checks"
  let sp_digest = sp "digest"
  let sp_smp = sp "smp_run"
  let sp_teardown = sp "teardown"
  let sp_leaked = sp "leaked_pages"
  let sp_create_file = Probe.id "vfs.create_file"
  let sp_export = Probe.id "sim.export"
  let sp_gc = Probe.id "bench.full_major"
  let sp_counters = Probe.id "bench.counters"
  let sp_calib = Probe.id "bench.calib"
  let host = new_host ()

  type st = {
    sys : K.sys;
    m : Machine.t;
    ps : int;
    w : W.t;
    vnodes : Vfs.Vnode.t array;
    vms : K.vmspace option array;
    base : int array array;  (** slot -> region -> first vpn *)
    mutable timing : bool;
    mutable traced : bool;
    lat : Samples.t;
    mutable failed : int;
    mutable problems : string list;
    mutable snap : float array option;
        (** class counters after the last classified touch, while no other
            call has run since *)
  }

  let problem st msg =
    if List.length st.problems < 20 then st.problems <- msg :: st.problems

  let vm st p =
    match st.vms.(p) with
    | Some v -> v
    | None -> invalid_arg "perfbench: no process in slot"

  let prot (r : W.region) =
    if r.W.writable then Pmap.Prot.rw
    else { Pmap.Prot.r = true; w = false; x = true }

  let addr st p r pg = (st.base.(p).(r) + pg) * st.ps

  let call st op =
    match op with
    | W.Spawn p -> st.vms.(p) <- Some (K.new_vmspace st.sys)
    | W.Mmap { p; r } ->
        let reg = st.w.W.regions.(r) in
        let src =
          match reg.W.src with
          | W.Anon -> Vt.Zero
          | W.File { file; off } -> Vt.File (st.vnodes.(file), off)
        in
        st.base.(p).(r) <-
          K.mmap st.sys (vm st p) ~npages:reg.W.npages ~prot:(prot reg)
            ~share:reg.W.share src
    | W.Munmap { p; r } ->
        K.munmap st.sys (vm st p) ~vpn:st.base.(p).(r)
          ~npages:st.w.W.regions.(r).W.npages
    | W.Fork { parent; child } ->
        st.vms.(child) <- Some (K.fork st.sys (vm st parent));
        st.base.(child) <- Array.copy st.base.(parent)
    | W.Exit p ->
        let v = vm st p in
        st.vms.(p) <- None;
        K.destroy_vmspace st.sys v
    | W.Touch { p; r; pg; write } ->
        K.touch st.sys (vm st p) ~vpn:(st.base.(p).(r) + pg)
          (if write then Vt.Write else Vt.Read)
    | W.Write { p; r; pg; tag } ->
        K.write_bytes st.sys (vm st p) ~addr:(addr st p r pg) (W.tag_bytes tag)
    | W.Read { p; r; pg; expect } ->
        let got =
          K.read_bytes st.sys (vm st p) ~addr:(addr st p r pg)
            ~len:W.check_bytes
        in
        let want = W.expected_bytes ~page_size:st.ps st.w.W.files expect in
        if not (Bytes.equal got want) then
          problem st
            (Printf.sprintf "%s: slot %d region %d page %d read %S, expected %S"
               K.tag p r pg (Bytes.to_string got) (Bytes.to_string want))

  (* One VM_SYS call.  A call that raises Segv (including out of memory or
     swap) or Invalid_argument is counted as failed, never fatal. *)
  let exec st op =
    let kind = kind_of op in
    let classed = st.traced && st.timing && kind = 5 in
    let counters () =
      let t = Probe.now_ns () in
      let c = class_snapshot st.m.Machine.stats in
      Probe.charge sp_counters (Probe.now_ns () - t);
      c
    in
    let before =
      match st.snap with
      | Some c when classed -> c
      | _ -> if classed then counters () else [||]
    in
    st.snap <- None;
    if st.traced then Probe.enter sp_kind.(kind);
    let t0 = Machine.now st.m in
    (match call st op with
    | () -> ()
    | exception (Vt.Segv _ | Invalid_argument _) -> st.failed <- st.failed + 1);
    let dt = Machine.now st.m -. t0 in
    if st.traced then (
      let ns = float_of_int (Probe.leave ()) in
      if st.timing then (
        Samples.push host.by_kind.(kind) ns;
        if classed then (
          let after = counters () in
          st.snap <- Some after;
          let c = classify before after in
          host.class_ns.(c) <- host.class_ns.(c) +. ns;
          host.class_calls.(c) <- host.class_calls.(c) + 1)));
    if st.timing then (
      Samples.push st.lat dt;
      Probe.Gc_pauses.tick ())

  (* The pagedaemon, wrapped from outside: a span per run and the pageouts
     it issued. *)
  let wrap_pagedaemon st =
    Physmem.set_pagedaemon st.m.Machine.physmem (fun () ->
        let pageouts () = row (Sim.Stats.to_rows st.m.Machine.stats) "pageouts" in
        let p0 = pageouts () in
        Probe.enter sp_pdaemon;
        K.pagedaemon st.sys;
        let ns = Probe.leave () in
        if st.timing then (
          host.pd_calls <- host.pd_calls + 1;
          host.pd_ns <- host.pd_ns +. float_of_int ns;
          host.pd_pageouts <- host.pd_pageouts +. (pageouts () -. p0)))

  let run_smp st (cpus, tasks) =
    let m = st.m in
    let smp =
      Sim.Smp.create ~seed:m.Machine.config.Machine.seed ~cpus
        ~clock:m.Machine.clock ~costs:m.Machine.costs ~stats:m.Machine.stats
        ~locks:m.Machine.locks ()
    in
    Sim.Smp.set_on_dispatch smp (fun cpu ->
        Physmem.set_current_cpu m.Machine.physmem cpu);
    Machine.set_runnable_probe m (Some (fun cpu -> Sim.Smp.runnable smp ~cpu));
    Array.iteri
      (fun w steps ->
        Sim.Smp.add_task smp ~cpu:(w mod cpus) ~name:(Printf.sprintf "worker%d" w)
          (fun i ->
            st.snap <- None;
            Array.iter (exec st) steps.(i);
            i + 1 < Array.length steps))
      tasks;
    Probe.span sp_smp (fun () -> Sim.Smp.run smp);
    Machine.set_runnable_probe m None;
    (* The run ends by exporting the Chrome trace and lockstat JSON. *)
    let t0 = Probe.now_ns () in
    let bytes =
      Probe.span sp_export (fun () ->
          Probe.Gc_pauses.paused (fun () ->
              let sources = Machine.traced () in
              let b = Buffer.create (1 lsl 20) in
              Sim.Trace_export.chrome_json b sources;
              let n = Buffer.length b in
              Buffer.clear b;
              Sim.Trace_export.lockstat_json b ~cpus sources;
              n + Buffer.length b))
    in
    let export_s = float_of_int (Probe.now_ns () - t0) /. 1e9 in
    let top_wait =
      match Sim.Smp.wait_by_class smp with [] -> 0.0 | (_, w) :: _ -> w
    in
    ( Sim.Smp.wall_us smp,
      [
        ("smp.lock_wait_s", Sim.Smp.total_wait_us smp /. 1e6);
        ("smp.line_bounces", float_of_int (Sim.Smp.total_bounces smp));
        ("smp.quanta", float_of_int (Sim.Smp.quanta smp));
        ("smp.top_class_wait_s", top_wait /. 1e6);
      ],
      [
        ("sim.export_ms", export_s *. 1e3);
        ("sim.export_bytes", float_of_int bytes);
        ("sim.events_retained", float_of_int (Sim.Hist.retained m.Machine.hist));
        ("sim.events_dropped", float_of_int (Sim.Hist.dropped m.Machine.hist));
      ] )

  let disk_sum disks f = float_of_int (List.fold_left (fun n d -> n + f d) 0 disks)

  (* Per-layer figures of one run, read through public accessors only. *)
  let layer_figures st rows =
    let r = row rows in
    let swap = Swap.Swaptier.disks st.m.Machine.swap in
    let vdisk = Vfs.disk st.m.Machine.vfs in
    let sw_writes = disk_sum swap Sim.Disk.write_ops in
    let common =
      [
        ("pmap.enters", r "pmap_enters");
        ("pmap.removes", r "pmap_removes");
        ("pmap.protects", r "pmap_protects");
        ( "physmem.cache_hit_ratio",
          ratio (r "cache_alloc_hits") (r "cache_alloc_hits" +. r "cache_alloc_misses") );
        ( "physmem.lookup_fast_ratio",
          ratio (r "lookup_fast_hits") (r "lookup_fast_hits" +. r "lookup_locked") );
        ("physmem.pages_zeroed", r "pages_zeroed");
        ("physmem.pages_copied", r "pages_copied");
        ("swap.write_ops", sw_writes);
        ("swap.pages_per_write", ratio (disk_sum swap Sim.Disk.pages_written) sw_writes);
        ("swap.read_ops", disk_sum swap Sim.Disk.read_ops);
        ("swap.full_events", r "swap_full_events");
        ("swap.retries", r "pageout_retries");
        ("vfs.read_ops", float_of_int (Sim.Disk.read_ops vdisk));
        ("vfs.vnode_recycles", r "vnode_recycles");
      ]
    in
    let own =
      if K.tag = "uvm" then
        [
          ("cow_reuse_ratio", ratio (r "cow_reuses") (r "cow_reuses" +. r "cow_copies"));
          ("anons_allocated", r "anons_allocated");
        ]
      else
        [
          ("shadow_objects", r "shadow_objects_allocated");
          ("collapse_success_ratio", ratio (r "collapse_successes") (r "collapse_attempts"));
          ( "objcache_hit_ratio",
            ratio (r "obj_cache_hits") (r "obj_cache_hits" +. r "obj_cache_misses") );
        ]
    in
    let module_prefix = if K.tag = "uvm" then "uvm." else "bsdvm." in
    List.map (fun (n, v) -> (K.tag ^ "." ^ n, v)) common
    @ List.map (fun (n, v) -> (module_prefix ^ n, v)) own

  let run ~traced (w : W.t) =
    Machine.reset_traced ();
    (* Start from a collected heap, so one kernel's garbage is not charged
       to the other. *)
    Probe.span sp_gc Gc.full_major;
    let t_setup = Probe.now_ns () in
    let sys = Probe.span sp_boot (fun () -> K.boot ~config:w.W.config ()) in
    let m = K.machine sys in
    let ps = Machine.page_size m in
    let st =
      {
        sys;
        m;
        ps;
        w;
        vnodes =
          Array.map
            (fun (name, npages) ->
              Probe.span sp_create_file (fun () ->
                  Vfs.create_file m.Machine.vfs ~name ~size:(npages * ps)))
            w.W.files;
        vms = Array.make w.W.slots None;
        base = Array.make_matrix w.W.slots (Array.length w.W.regions) 0;
        timing = false;
        traced;
        lat = Samples.create ();
        failed = 0;
        problems = [];
        snap = None;
      }
    in
    if traced then wrap_pagedaemon st;
    Probe.span sp_setup (fun () -> Array.iter (exec st) w.W.setup);
    if st.failed > 0 then problem st (K.tag ^ ": a set-up call failed");
    let setup_s = float_of_int (Probe.now_ns () - t_setup) /. 1e9 in
    (* The timed phase. *)
    st.timing <- true;
    let sim0 = Machine.now m in
    let cal0 = Probe.span sp_calib Calib.run in
    ignore (Probe.Gc_pauses.take ~timed:false);
    let g0 = Gc.quick_stat () in
    let t0 = Probe.now_ns () in
    let sim_us, smp_figs, sim_figs =
      match w.W.smp with
      | None ->
          Array.iter (exec st) w.W.stream;
          (Machine.now m -. sim0, [], [])
      | Some tasks -> run_smp st tasks
    in
    let timed_s = float_of_int (Probe.now_ns () - t0) /. 1e9 in
    let gc = gc_delta g0 (Gc.quick_stat ()) ~pause_ms:(Probe.Gc_pauses.take ~timed:true) in
    let calib_ms = (cal0 +. Probe.span sp_calib Calib.run) /. 2.0 in
    st.timing <- false;
    let calls = st.lat.Samples.n in
    let failed = st.failed in
    let sim_s = sim_us /. 1e6 in
    let latencies = Samples.to_array st.lat in
    let rows = Sim.Stats.to_rows m.Machine.stats in
    let digest =
      Probe.span sp_digest (fun () ->
          digest ~sim_s ~latencies ~rows ~extra:smp_figs)
    in
    (* Outputs, outside the timed phase. *)
    Probe.span sp_audit (fun () ->
        match K.audit sys with
        | () -> ()
        | exception Check.Audit_failure f ->
            problem st (K.tag ^ ": audit: " ^ Check.string_of_failure f));
    let pages =
      Probe.span sp_checks (fun () ->
          Array.map
            (fun op ->
              exec st op;
              match op with
              | W.Read { p; r; pg; _ } -> (
                  match
                    Probe.span sp_kind.(kind_of op) (fun () ->
                        K.read_bytes sys (vm st p) ~addr:(addr st p r pg) ~len:ps)
                  with
                  | b -> Digest.to_hex (Digest.bytes b)
                  | exception (Vt.Segv _ | Invalid_argument _) -> "unreadable")
              | _ -> "")
            w.W.checks)
    in
    if st.failed > failed then problem st (K.tag ^ ": a read-back failed");
    if K.tag = "uvm" then (
      let leaked = Probe.span sp_leaked (fun () -> K.leaked_pages sys) in
      if leaked <> 0 then problem st (Printf.sprintf "uvm: %d leaked pages" leaked));
    (* Every process exits.  BSD VM registers live anonymous objects in a
       process-wide table, so a machine dropped with processes still
       running would stay reachable and peak RSS would grow with the
       number of repetitions. *)
    Probe.span sp_teardown (fun () ->
        Array.iteri
          (fun p v ->
            Option.iter
              (fun v ->
                st.vms.(p) <- None;
                K.destroy_vmspace sys v)
              v)
          st.vms);
    {
      calls;
      failed;
      setup_s;
      timed_s;
      calib_ms;
      sim_s;
      latencies;
      digest;
      problems = List.rev st.problems;
      pages;
      layer =
        List.map (fun (n, v) -> (K.tag ^ "." ^ n, v)) smp_figs
        @ sim_figs @ layer_figures st rows;
      gc;
    }
end

module Uvm_k = Make (struct
  include Uvm.Sys

  let tag = "uvm"
  let pagedaemon sys = Uvm.Pdaemon.run sys.Uvm.Sys.usys
end)

module Bsd_k = Make (struct
  include Bsdvm.Sys

  let tag = "bsd"
  let pagedaemon sys = Bsdvm.Pageout.run sys.Bsdvm.Sys.bsys
end)
