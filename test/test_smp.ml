(* Simulated SMP (DESIGN.md §16): the per-CPU free-page caches against
   the colored queues (drain returns pages to the right color ring,
   refills never dig into the reserve), the scheduler's determinism
   contract, and the full storm experiment at 4 CPUs with every
   mid-storm audit clean. *)

let mk ?(npages = 128) ?(ncpus = 4) () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let pm =
    Physmem.create ~page_size:256 ~npages ~ncpus ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (pm, stats)

(* -- per-CPU caches vs colored queues ----------------------------------- *)

let test_drain_returns_to_color_queue () =
  let pm, _ = mk () in
  Physmem.set_current_cpu pm 1;
  (* Fault the caches into life, then free the page so CPU 1's cache has
     had at least one refill behind it. *)
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Physmem.free_page pm p;
  let held =
    List.fold_left (fun n v -> n + v.Physmem.cw_held) 0 (Physmem.cache_views pm)
  in
  Alcotest.(check bool) "some pages are cached" true (held > 0);
  Physmem.drain_caches pm;
  List.iter
    (fun v -> Alcotest.(check int) "cache empty after drain" 0 v.Physmem.cw_held)
    (Physmem.cache_views pm);
  Alcotest.(check int) "every frame back on the queues"
    (Physmem.free_count pm)
    (Physmem.queue_free_count pm);
  (* The color invariant: every page on color ring c has color c — and
     the rings jointly hold every free frame. *)
  let total = ref 0 in
  for c = 0 to Physmem.ncolors - 1 do
    List.iter
      (fun (page : Physmem.Page.t) ->
        Alcotest.(check int)
          (Printf.sprintf "frame %d on ring %d" page.Physmem.Page.id c)
          c page.Physmem.Page.color;
        incr total)
      (Physmem.free_pages_of_color pm c)
  done;
  Alcotest.(check int) "rings sum to the free count" (Physmem.free_count pm)
    !total;
  Check.check_smp ~system:"TEST" pm

let test_refill_respects_reserve () =
  let pm, _ = mk ~npages:128 ~ncpus:4 () in
  let reserve = Physmem.reserve pm in
  Alcotest.(check bool) "machine has a reserve" true (reserve > 0);
  (* Allocate everything allocatable on a rotating CPU: however the
     caches batch their refills, the colored queues must never drop
     below the reserve while frames are still cached. *)
  let stash = ref [] in
  (try
     let cpu = ref 0 in
     while true do
       Physmem.set_current_cpu pm (!cpu mod Physmem.ncpus pm);
       incr cpu;
       stash :=
         Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () :: !stash;
       let held =
         List.fold_left
           (fun n v -> n + v.Physmem.cw_held)
           0 (Physmem.cache_views pm)
       in
       if held > 0 then
         Alcotest.(check bool)
           (Printf.sprintf "queues (%d) stay above reserve (%d) while %d cached"
              (Physmem.queue_free_count pm)
              reserve held)
           true
           (Physmem.queue_free_count pm >= reserve)
     done
   with Physmem.Out_of_pages -> ());
  (* Out of pages precisely because the queues refused to dig into the
     reserve: what's left free is the reserve plus whatever is stranded
     in other CPUs' caches — and nothing has been lost. *)
  Alcotest.(check bool) "queues stopped at the reserve" true
    (Physmem.queue_free_count pm <= reserve);
  Alcotest.(check int) "no frame lost" 128
    (List.length !stash + Physmem.free_count pm);
  Alcotest.(check bool) "allocated most of RAM" true
    (List.length !stash >= 128 / 2);
  Check.check_smp ~system:"TEST" pm;
  List.iter (fun p -> Physmem.free_page pm p) !stash

let test_cache_stats_flow () =
  let pm, stats = mk () in
  Physmem.set_current_cpu pm 2;
  let ps =
    List.init 8 (fun i ->
        Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:i ())
  in
  List.iter (fun p -> Physmem.free_page pm p) ps;
  Alcotest.(check bool) "refills counted" true
    (Sim.Stats.(get stats cache_refills) > 0);
  Alcotest.(check bool) "hits counted" true
    (Sim.Stats.(get stats cache_alloc_hits) > 0);
  let v = List.nth (Physmem.cache_views pm) 2 in
  Alcotest.(check bool) "per-cpu hit view" true (v.Physmem.cw_hits > 0)

(* -- ordered queue walks ------------------------------------------------- *)

(* 48 pages allocated on rotating CPUs, so the per-CPU caches hand out
   frames of many colors, then queued in an order frame numbers do not
   predict: all activated, most deactivated in reverse, some reactivated,
   some deactivated again. *)
let walk_machine () =
  let pm, _ = mk ~npages:128 ~ncpus:4 () in
  let pages =
    List.init 48 (fun i ->
        Physmem.set_current_cpu pm (i mod 4);
        Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:i ())
  in
  List.iter (Physmem.activate pm) pages;
  List.iteri
    (fun i p -> if i mod 3 <> 1 then Physmem.deactivate pm p)
    (List.rev pages);
  List.iteri (fun i p -> if i mod 5 = 0 then Physmem.activate pm p) pages;
  List.iteri (fun i p -> if i mod 7 = 0 then Physmem.deactivate pm p) pages;
  pm

(* The reference order: every frame tagged with [kind], sorted by enqueue
   stamp — what a sorted snapshot of the rings holds. *)
let sorted_by_stamp pm kind =
  let acc = ref [] in
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      if p.Physmem.Page.queue = kind then acc := p :: !acc)
    pm;
  List.sort
    (fun (a : Physmem.Page.t) (b : Physmem.Page.t) ->
      compare a.Physmem.Page.q_seq b.Physmem.Page.q_seq)
    !acc

let ids = List.map (fun (p : Physmem.Page.t) -> p.Physmem.Page.id)

let test_walk_in_stamp_order () =
  let pm = walk_machine () in
  List.iter
    (fun (name, kind, walk, snapshot) ->
      let want = sorted_by_stamp pm kind in
      let colors =
        List.sort_uniq compare
          (List.map (fun (p : Physmem.Page.t) -> p.Physmem.Page.color) want)
      in
      Alcotest.(check bool)
        (name ^ " spans several colors") true
        (List.length colors >= 4);
      Alcotest.(check bool)
        (name ^ " is not in frame order") true
        (ids want <> List.sort compare (ids want));
      let got = ref [] in
      walk pm (fun (p : Physmem.Page.t) ->
          got := p.Physmem.Page.id :: !got;
          true);
      Alcotest.(check (list int)) (name ^ " walk") (ids want) (List.rev !got);
      Alcotest.(check (list int))
        (name ^ " snapshot") (ids want)
        (ids (snapshot pm)))
    [
      ( "inactive",
        Physmem.Page.Q_inactive,
        Physmem.walk_inactive,
        Physmem.inactive_pages );
      ("active", Physmem.Page.Q_active, Physmem.walk_active, Physmem.active_pages);
    ]

let test_walk_stops () =
  let pm = walk_machine () in
  let want = ids (sorted_by_stamp pm Physmem.Page.Q_inactive) in
  let got = ref [] in
  Physmem.walk_inactive pm (fun (p : Physmem.Page.t) ->
      got := p.Physmem.Page.id :: !got;
      List.length !got < 5);
  Alcotest.(check (list int))
    "the first five, then stop"
    (List.filteri (fun i _ -> i < 5) want)
    (List.rev !got)

let test_walk_skips_late_enqueue () =
  let pm = walk_machine () in
  let want = ids (sorted_by_stamp pm Physmem.Page.Q_inactive) in
  let late = List.hd (sorted_by_stamp pm Physmem.Page.Q_active) in
  let got = ref [] in
  Physmem.walk_inactive pm (fun (p : Physmem.Page.t) ->
      if !got = [] then Physmem.deactivate pm late;
      got := p.Physmem.Page.id :: !got;
      true);
  Alcotest.(check bool) "late page joined the queue" true
    (late.Physmem.Page.queue = Physmem.Page.Q_inactive);
  Alcotest.(check (list int)) "late page not visited" want (List.rev !got)

let test_walk_callback_moves_current () =
  let pm = walk_machine () in
  let want = ids (sorted_by_stamp pm Physmem.Page.Q_inactive) in
  let got = ref [] in
  Physmem.walk_inactive pm (fun (p : Physmem.Page.t) ->
      (match List.length !got mod 3 with
      | 0 -> Physmem.activate pm p
      | 1 -> Physmem.deactivate pm p
      | _ -> Physmem.free_page pm p);
      got := p.Physmem.Page.id :: !got;
      true);
  Alcotest.(check (list int)) "each page visited once" want (List.rev !got);
  Alcotest.(check int) "requeued pages stay inactive"
    ((List.length want + 1) / 3)
    (Physmem.inactive_count pm);
  Check.check_ledger ~system:"TEST" pm;
  Check.check_physmem ~system:"TEST" pm;
  Check.check_smp ~system:"TEST" pm

let test_walk_raises_on_unvisited_unlink () =
  (* Pages already visited may leave freely. *)
  let pm = walk_machine () in
  let prev = ref None in
  Physmem.walk_inactive pm (fun p ->
      Option.iter (Physmem.activate pm) !prev;
      prev := Some p;
      true);
  Alcotest.(check int) "all but the last visited page left" 1
    (Physmem.inactive_count pm);
  (* A page not yet visited may not. *)
  let pm = walk_machine () in
  let pages = sorted_by_stamp pm Physmem.Page.Q_inactive in
  let last = List.nth pages (List.length pages - 1) in
  (match Physmem.walk_inactive pm (fun _ -> Physmem.activate pm last; true) with
  | () -> Alcotest.fail "unlinking an unvisited page did not raise"
  | exception Failure _ -> ());
  (* The failed walk leaves no guard behind. *)
  Physmem.activate pm last;
  Alcotest.(check bool) "activated after the walk" true
    (last.Physmem.Page.queue = Physmem.Page.Q_active)

(* -- the scheduler's determinism contract -------------------------------- *)

(* Two identical task sets must interleave identically: same per-CPU
   clocks, same quantum counts — byte-for-byte determinism is what makes
   an SMP failure replayable with a seed. *)
let run_toy () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let costs = Sim.Cost_model.default in
  let smp = Sim.Smp.create ~seed:42 ~cpus:3 ~clock ~costs ~stats () in
  for p = 0 to 5 do
    Sim.Smp.add_task smp ~cpu:(p mod 3) ~name:(Printf.sprintf "t%d" p)
      (fun i ->
        (* Uneven virtual work so the min-clock rule actually matters. *)
        Sim.Simclock.advance clock (float_of_int (((p + 1) * (i + 1)) mod 7));
        i < 9)
  done;
  Sim.Smp.run smp;
  ( Sim.Smp.wall_us smp,
    Sim.Smp.quanta smp,
    List.map (fun v -> (v.Sim.Smp.cv_cpu, v.Sim.Smp.cv_now_us, v.Sim.Smp.cv_quanta))
      (Sim.Smp.cpu_views smp) )

let test_scheduler_deterministic () =
  let a = run_toy () and b = run_toy () in
  let wall_a, quanta_a, cpus_a = a and wall_b, quanta_b, cpus_b = b in
  Alcotest.(check (float 0.0)) "same wall" wall_a wall_b;
  Alcotest.(check int) "same quanta" quanta_a quanta_b;
  Alcotest.(check int) "all 60 quanta ran" 60 quanta_a;
  List.iter2
    (fun (c1, now1, q1) (c2, now2, q2) ->
      Alcotest.(check int) "cpu" c1 c2;
      Alcotest.(check (float 0.0)) "clock" now1 now2;
      Alcotest.(check int) "quanta" q1 q2)
    cpus_a cpus_b

let test_scheduler_balances () =
  let _, _, cpus = run_toy () in
  (* Two tasks of 10 steps per CPU. *)
  List.iter
    (fun (_, _, q) -> Alcotest.(check int) "20 quanta per cpu" 20 q)
    cpus

(* Each CPU's shard sums the deltas of the quanta it ran, so the shards
   add up to the machine's change over the run: for a counter that is
   its count, for a gauge the net change of its level. *)
let test_shards_sum_to_machine () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  Sim.Stats.(set stats faults 5);
  Sim.Stats.(set stats free_pages 1000);
  let smp =
    Sim.Smp.create ~seed:42 ~cpus:3 ~clock ~costs:Sim.Cost_model.default
      ~stats ()
  in
  for p = 0 to 5 do
    Sim.Smp.add_task smp ~cpu:(p mod 3) ~name:(Printf.sprintf "t%d" p)
      (fun i ->
        Sim.Simclock.advance clock (float_of_int (1 + ((p + i) mod 4)));
        Sim.Stats.(bump stats faults (p + 1));
        Sim.Stats.(set stats free_pages (1000 - (37 * p) + (11 * i)));
        i < 6)
  done;
  Sim.Smp.run smp;
  let sum c =
    List.fold_left
      (fun acc v -> acc + Sim.Stats.get v.Sim.Smp.cv_stats c)
      0 (Sim.Smp.cpu_views smp)
  in
  Alcotest.(check int) "shard faults sum to the machine's"
    (Sim.Stats.(get stats faults) - 5)
    (sum Sim.Stats.faults);
  Alcotest.(check int) "shard free_pages sum to the level's net change"
    (Sim.Stats.(get stats free_pages) - 1000)
    (sum Sim.Stats.free_pages)

(* -- the storm ----------------------------------------------------------- *)

let test_storm_4cpus_clean () =
  let r = Experiments.Smp.run ~quick:true ~cpus:4 ~seed:42 () in
  Alcotest.(check int) "both kernels ran" 2
    (List.length r.Experiments.Smp.sm_systems);
  List.iter
    (fun (s : Experiments.Smp.system_result) ->
      let p = s.Experiments.Smp.ss_par in
      Alcotest.(check (list string))
        (s.ss_system ^ ": no audit failures")
        [] p.Experiments.Smp.kr_audit_failures;
      Alcotest.(check bool)
        (s.ss_system ^ ": mid-storm audits ran")
        true
        (p.Experiments.Smp.kr_audits > 1);
      Alcotest.(check bool)
        (s.ss_system ^ ": contention was measured")
        true
        (p.Experiments.Smp.kr_total_wait_us > 0.0);
      Alcotest.(check bool)
        (s.ss_system ^ ": the storm scales")
        true
        (Experiments.Smp.speedup s >= 1.0);
      Alcotest.(check bool)
        (s.ss_system ^ ": fast path serves >50% of lookups")
        true
        (Experiments.Smp.fast_rate p > 0.5))
    r.Experiments.Smp.sm_systems;
  (* The paper's asymmetry, measured: the shared-anonymous storm piles
     write-mode waits on BSD VM's single shared object; UVM spreads the
     same faults over amaps, so its object class stays off the top. *)
  let top sys =
    let s =
      List.find
        (fun (s : Experiments.Smp.system_result) ->
          s.Experiments.Smp.ss_system = sys)
        r.Experiments.Smp.sm_systems
    in
    fst (Experiments.Smp.top_wait s.Experiments.Smp.ss_par)
  in
  Alcotest.(check string) "BSD VM's top waiter is the object class" "object"
    (top "BSD VM");
  Alcotest.(check bool) "UVM's is not" true (top "UVM" <> "object")

let test_storm_deterministic () =
  let wall sys_list =
    List.map
      (fun (s : Experiments.Smp.system_result) ->
        (s.Experiments.Smp.ss_system, s.Experiments.Smp.ss_par.kr_wall_us))
      sys_list
  in
  let a = Experiments.Smp.run ~quick:true ~cpus:2 ~seed:7 () in
  let b = Experiments.Smp.run ~quick:true ~cpus:2 ~seed:7 () in
  List.iter2
    (fun (s1, w1) (s2, w2) ->
      Alcotest.(check string) "system" s1 s2;
      Alcotest.(check (float 0.0)) (s1 ^ " wall reproduces") w1 w2)
    (wall a.Experiments.Smp.sm_systems)
    (wall b.Experiments.Smp.sm_systems)

let () =
  Alcotest.run "smp"
    [
      ( "caches",
        [
          Alcotest.test_case "drain returns pages to their color rings" `Quick
            test_drain_returns_to_color_queue;
          Alcotest.test_case "refill never digs into the reserve" `Quick
            test_refill_respects_reserve;
          Alcotest.test_case "cache stats flow" `Quick test_cache_stats_flow;
        ] );
      ( "walk",
        [
          Alcotest.test_case "merged rings in stamp order" `Quick
            test_walk_in_stamp_order;
          Alcotest.test_case "false stops the walk" `Quick test_walk_stops;
          Alcotest.test_case "pages queued mid-walk are not visited" `Quick
            test_walk_skips_late_enqueue;
          Alcotest.test_case "callback may requeue or free its page" `Quick
            test_walk_callback_moves_current;
          Alcotest.test_case "unlinking an unvisited page raises" `Quick
            test_walk_raises_on_unvisited_unlink;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic interleaving" `Quick
            test_scheduler_deterministic;
          Alcotest.test_case "per-cpu quantum balance" `Quick
            test_scheduler_balances;
          Alcotest.test_case "shards sum to the machine's counters" `Quick
            test_shards_sum_to_machine;
        ] );
      ( "storm",
        [
          Alcotest.test_case "4-cpu storm audits clean" `Quick
            test_storm_4cpus_clean;
          Alcotest.test_case "storm reproduces bit-for-bit" `Quick
            test_storm_deterministic;
        ] );
    ]
