(* Swap: the contiguous slot allocator and the paging device. *)

let test_swapmap_basic () =
  let m = Swap.Swapmap.create ~nslots:16 in
  Alcotest.(check int) "capacity" 16 (Swap.Swapmap.capacity m);
  (match Swap.Swapmap.alloc m ~n:4 with
  | Some s ->
      Alcotest.(check bool) "slot >= 1" true (s >= 1);
      Alcotest.(check int) "in use" 4 (Swap.Swapmap.in_use m);
      Alcotest.(check bool) "allocated" true (Swap.Swapmap.is_allocated m ~slot:s);
      Swap.Swapmap.free m ~slot:s ~n:4;
      Alcotest.(check int) "freed" 0 (Swap.Swapmap.in_use m)
  | None -> Alcotest.fail "alloc failed")

let test_swapmap_contiguity () =
  let m = Swap.Swapmap.create ~nslots:16 in
  (* Fragment: allocate singles, free every other one. *)
  let slots = List.init 16 (fun _ -> Option.get (Swap.Swapmap.alloc m ~n:1)) in
  List.iteri (fun i s -> if i mod 2 = 0 then Swap.Swapmap.free m ~slot:s ~n:1) slots;
  Alcotest.(check bool) "no contiguous pair" true (Swap.Swapmap.alloc m ~n:2 = None);
  Alcotest.(check bool) "single fits" true (Swap.Swapmap.alloc m ~n:1 <> None)

let test_swapmap_exhaustion () =
  let m = Swap.Swapmap.create ~nslots:8 in
  Alcotest.(check bool) "full run ok" true (Swap.Swapmap.alloc m ~n:8 <> None);
  Alcotest.(check bool) "exhausted" true (Swap.Swapmap.alloc m ~n:1 = None)

let test_swapmap_errors () =
  let m = Swap.Swapmap.create ~nslots:8 in
  let s = Option.get (Swap.Swapmap.alloc m ~n:2) in
  Swap.Swapmap.free m ~slot:s ~n:2;
  Alcotest.check_raises "double free"
    (Invalid_argument "Swapmap.free: slot not allocated") (fun () ->
      Swap.Swapmap.free m ~slot:s ~n:2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Swapmap.free: slot range out of bounds") (fun () ->
      Swap.Swapmap.free m ~slot:7 ~n:5)

(* Property: in_use always equals the number of allocated slots, and
   allocated runs never overlap. *)
let prop_swapmap_accounting =
  QCheck.Test.make ~name:"swapmap accounting" ~count:100
    QCheck.(list (int_range 1 5))
    (fun sizes ->
      let m = Swap.Swapmap.create ~nslots:64 in
      let held = ref [] in
      List.iteri
        (fun i n ->
          if i mod 3 = 2 then (
            match !held with
            | (s, k) :: rest ->
                Swap.Swapmap.free m ~slot:s ~n:k;
                held := rest
            | [] -> ())
          else
            match Swap.Swapmap.alloc m ~n with
            | Some s -> held := (s, n) :: !held
            | None -> ())
        sizes;
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 !held in
      let no_overlap =
        List.for_all
          (fun (s1, n1) ->
            List.for_all
              (fun (s2, n2) ->
                (s1 = s2 && n1 = n2) || s1 + n1 <= s2 || s2 + n2 <= s1)
              !held)
          !held
      in
      Swap.Swapmap.in_use m = total && no_overlap)

let io_ok = function
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected I/O error: %s" (Sim.Fault_plan.string_of_error e)

let mk_dev () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let dev =
    Swap.Swapdev.create ~nslots:64 ~page_size:256 ~clock
      ~costs:Sim.Cost_model.default ~stats ()
  in
  let pm =
    Physmem.create ~page_size:256 ~npages:32 ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (dev, pm, clock, stats)

let test_swapdev_roundtrip () =
  let dev, pm, _, _ = mk_dev () in
  let mkpage c =
    let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
    Bytes.fill p.Physmem.Page.data 0 256 c;
    p.Physmem.Page.dirty <- true;
    p
  in
  let pages = [ mkpage 'a'; mkpage 'b'; mkpage 'c' ] in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:3) in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages);
  List.iter
    (fun (p : Physmem.Page.t) ->
      Alcotest.(check bool) "cleaned by write" false p.dirty)
    pages;
  let dst = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  io_ok (Swap.Swapdev.read_slot dev ~slot:(slot + 1) ~dst);
  Alcotest.(check char) "middle page restored" 'b' (Bytes.get dst.Physmem.Page.data 17);
  let dsts =
    [ Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ();
      Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () ]
  in
  io_ok (Swap.Swapdev.read_cluster dev ~slot ~dsts);
  Alcotest.(check char) "cluster page 0" 'a'
    (Bytes.get (List.nth dsts 0).Physmem.Page.data 0);
  Alcotest.(check char) "cluster page 1" 'b'
    (Bytes.get (List.nth dsts 1).Physmem.Page.data 0)

let test_swapdev_cluster_is_one_op () =
  let dev, pm, clock, _ = mk_dev () in
  let pages =
    List.init 8 (fun _ -> Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())
  in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:8) in
  let t0 = Sim.Simclock.now clock in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages);
  let c = Sim.Cost_model.default in
  Alcotest.(check (float 1e-6)) "one op + 8 transfers"
    (c.Sim.Cost_model.disk_op_latency +. (8.0 *. c.Sim.Cost_model.disk_page_transfer))
    (Sim.Simclock.now clock -. t0);
  Alcotest.(check int) "one write op" 1 (Sim.Disk.write_ops (Swap.Swapdev.disk dev))

let test_swapdev_free_discards () =
  let dev, pm, _, _ = mk_dev () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:1) in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages:[ p ]);
  Swap.Swapdev.free_slots dev ~slot ~n:1;
  Alcotest.check_raises "data discarded"
    (Invalid_argument "Swapdev.read_slot: slot holds no data") (fun () ->
      ignore (Swap.Swapdev.read_slot dev ~slot ~dst:p))

(* ------------------------------------------------------------------ *)
(* Swaptier: priority allocation, device death, drain, swapcache      *)
(* ------------------------------------------------------------------ *)

module St = Swap.Swaptier

let spec name pages prio =
  { St.tier_name = name; tier_pages = pages; tier_priority = prio; tier_costs = None }

let mk_tiers specs =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let t =
    St.create ~specs ~page_size:256 ~clock ~costs:Sim.Cost_model.default ~stats
  in
  let pm =
    Physmem.create ~page_size:256 ~npages:64 ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (t, pm, stats)

let tier_page pm c =
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill p.Physmem.Page.data 0 256 c;
  p.Physmem.Page.dirty <- true;
  p

let tier_named t name =
  List.find (fun ti -> ti.St.ti_name = name) (St.tiers t)

let test_tier_priority_and_striping () =
  let t, _, _ = mk_tiers [ spec "fast" 4 0; spec "slowa" 8 1; spec "slowb" 8 1 ] in
  Alcotest.(check int) "aggregate capacity" 20 (St.capacity t);
  (* The fast tier fills first; its global slots are 1..4. *)
  for _ = 1 to 4 do
    let s = Option.get (St.alloc_slots t ~n:1) in
    Alcotest.(check bool) "fast tier first" true (s >= 1 && s <= 4)
  done;
  (* Then the equal-priority band, striped between its two devices. *)
  for _ = 1 to 4 do
    let s = Option.get (St.alloc_slots t ~n:1) in
    Alcotest.(check bool) "spilled past fast" true (s > 4)
  done;
  Alcotest.(check int) "striped: slowa" 2 (tier_named t "slowa").St.ti_in_use;
  Alcotest.(check int) "striped: slowb" 2 (tier_named t "slowb").St.ti_in_use

let test_tier_death_failover () =
  let t, pm, stats = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let pages = [ tier_page pm 'a'; tier_page pm 'b' ] in
  let slot = Option.get (St.alloc_slots t ~n:2) in
  io_ok (St.write_cluster t ~slot ~pages);
  St.kill_device t ~name:"fast";
  St.kill_device t ~name:"fast" (* idempotent *);
  Alcotest.(check bool) "dead" false (St.device_alive t ~name:"fast");
  Alcotest.(check int) "one death counted" 1
    Sim.Stats.(get stats swap_devices_dead);
  Alcotest.(check int) "only the slow tier allocates" 16 (St.slots_usable t);
  Alcotest.(check bool) "whole device blacklisted" true (St.is_bad_slot t ~slot);
  (* Dying media: writes fail permanently, reads still served. *)
  (match St.write_cluster t ~slot ~pages with
  | Error { Sim.Fault_plan.severity = Sim.Fault_plan.Permanent; _ } -> ()
  | _ -> Alcotest.fail "write to dead device must fail permanently");
  let dst = tier_page pm ' ' in
  io_ok (St.read_slot t ~slot ~dst);
  Alcotest.(check char) "drain window read" 'a' (Bytes.get dst.Physmem.Page.data 0);
  (* write_resilient fails over to the slow tier and rebinds the owner. *)
  let bound = ref slot in
  (match
     St.write_resilient t ~retries:2 ~backoff_us:10.0 ~slot
       ~assign:(fun s -> bound := s)
       ~pages
   with
  | St.Reassigned fresh ->
      Alcotest.(check int) "owner rebound" fresh !bound;
      Alcotest.(check bool) "landed on the slow device" true (fresh > 8)
  | _ -> Alcotest.fail "expected cross-tier reassignment");
  Alcotest.(check int) "failover counted" 1
    Sim.Stats.(get stats swap_failovers);
  io_ok (St.read_slot t ~slot:(!bound + 1) ~dst);
  Alcotest.(check char) "data survived failover" 'b'
    (Bytes.get dst.Physmem.Page.data 0)

(* The No_space rung: reassignment with no healthy slot anywhere. *)
let test_tier_no_space () =
  let t, pm, stats = mk_tiers [ spec "fast" 4 0; spec "slow" 4 1 ] in
  let pages = [ tier_page pm 'x' ] in
  let slot = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot ~pages);
  (* Exhaust every remaining slot, then kill the device holding ours. *)
  while St.alloc_slots t ~n:1 <> None do () done;
  St.kill_device t ~name:"fast";
  (match
     St.write_resilient t ~retries:2 ~backoff_us:10.0 ~slot
       ~assign:(fun _ -> Alcotest.fail "no slot to assign")
       ~pages
   with
  | St.No_space { Sim.Fault_plan.severity = Sim.Fault_plan.Permanent; _ } -> ()
  | _ -> Alcotest.fail "expected No_space");
  Alcotest.(check bool) "degradation counted" true
    (Sim.Stats.(get stats swap_full_events) >= 1)

let test_tier_drain_migration () =
  let t, pm, stats = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let s1 = Option.get (St.alloc_slots t ~n:1) in
  let s2 = Option.get (St.alloc_slots t ~n:1) in
  let s3 = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot:s1 ~pages:[ tier_page pm 'p' ]);
  io_ok (St.write_cluster t ~slot:s2 ~pages:[ tier_page pm 'q' ]);
  (* s3 was never written: the drain drops it (owner rewrites later). *)
  let owned = ref [ s1; s2; s3 ] in
  St.set_drain_hook t
    (Some
       (fun () ->
         owned :=
           List.filter_map
             (fun s ->
               if not (St.slot_needs_drain t ~slot:s) then Some s
               else
                 match St.migrate_slot t ~slot:s with
                 | Some fresh ->
                     St.free_slots t ~slot:s ~n:1;
                     Some fresh
                 | None ->
                     St.free_slots t ~slot:s ~n:1;
                     None)
             !owned));
  St.kill_device t ~name:"fast";
  Alcotest.(check bool) "drain pending" true (St.drain_pending t);
  St.run_drain t;
  Alcotest.(check bool) "drain complete" false (St.drain_pending t);
  Alcotest.(check int) "two slots migrated" 2
    Sim.Stats.(get stats swap_migrations);
  Alcotest.(check int) "dead device owns nothing" 0
    (tier_named t "fast").St.ti_in_use;
  Alcotest.(check (option string)) "no undrained violation" None
    (St.undrained_violation t);
  (match !owned with
  | [ n1; n2 ] ->
      Alcotest.(check bool) "both on the slow device" true (n1 > 8 && n2 > 8);
      let dst = tier_page pm ' ' in
      io_ok (St.read_slot t ~slot:n1 ~dst);
      Alcotest.(check char) "first survivor" 'p' (Bytes.get dst.Physmem.Page.data 0);
      io_ok (St.read_slot t ~slot:n2 ~dst);
      Alcotest.(check char) "second survivor" 'q' (Bytes.get dst.Physmem.Page.data 0)
  | l -> Alcotest.failf "expected 2 rebound slots, got %d" (List.length l))

let test_swapoff_drains () =
  let t, pm, _ = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let slot = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot ~pages:[ tier_page pm 'v' ]);
  let bound = ref slot in
  St.set_drain_hook t
    (Some
       (fun () ->
         if St.slot_needs_drain t ~slot:!bound then
           match St.migrate_slot t ~slot:!bound with
           | Some fresh ->
               St.free_slots t ~slot:!bound ~n:1;
               bound := fresh
           | None -> ()));
  (* Administrative removal: drains synchronously, media stays healthy. *)
  St.swapoff t ~name:"fast";
  Alcotest.(check bool) "media still alive" true (St.device_alive t ~name:"fast");
  Alcotest.(check bool) "nothing left to drain" false (St.drain_pending t);
  Alcotest.(check bool) "slot moved off" true (!bound > 8);
  Alcotest.(check int) "out of the pool" 16 (St.slots_usable t)

let test_swapcache_basics () =
  let t, pm, stats = mk_tiers [ spec "fast" 16 0; spec "slow" 32 1 ] in
  let page = tier_page pm 'z' in
  St.cache_put t ~vid:7 ~pgno:3 ~page;
  Alcotest.(check int) "one entry" 1 (St.cache_slots t);
  Alcotest.(check int) "fill counted" 1 Sim.Stats.(get stats swap_cache_fills);
  Alcotest.(check int) "cached on the fast tier" 1
    (tier_named t "fast").St.ti_cache_slots;
  Alcotest.(check bool) "contains" true (St.cache_contains t ~vid:7 ~pgno:3);
  let dst = tier_page pm ' ' in
  Alcotest.(check bool) "hit" true (St.cache_lookup t ~vid:7 ~pgno:3 ~dst);
  Alcotest.(check char) "served the bytes" 'z' (Bytes.get dst.Physmem.Page.data 9);
  Alcotest.(check bool) "served clean" false dst.Physmem.Page.dirty;
  Alcotest.(check int) "hit counted" 1 Sim.Stats.(get stats swap_cache_hits);
  Alcotest.(check bool) "miss on other page" false
    (St.cache_lookup t ~vid:7 ~pgno:4 ~dst);
  St.cache_invalidate t ~vid:7 ~pgno:3;
  Alcotest.(check int) "invalidated" 0 (St.cache_slots t);
  Alcotest.(check int) "slot released" 0 (St.slots_in_use t);
  (* Audit view and single-tier inertness. *)
  St.cache_put t ~vid:9 ~pgno:1 ~page;
  Alcotest.(check int) "one claim" 1 (List.length (St.cache_claims t));
  let single, _, sstats = mk_tiers [ spec "only" 32 0 ] in
  St.cache_put single ~vid:1 ~pgno:0 ~page;
  Alcotest.(check int) "single tier: cache inert" 0 (St.cache_slots single);
  Alcotest.(check int) "single tier: no fill" 0
    Sim.Stats.(get sstats swap_cache_fills)

(* Graceful degradation, first rung: slot pressure sheds cache entries
   before any allocation fails. *)
let test_swapcache_shed_under_pressure () =
  let t, pm, stats = mk_tiers [ spec "fast" 16 0; spec "slow" 4 1 ] in
  let page = tier_page pm 'c' in
  for pgno = 0 to 2 do
    St.cache_put t ~vid:1 ~pgno ~page
  done;
  Alcotest.(check int) "three entries" 3 (St.cache_slots t);
  (* 20 slots total, 3 held by the cache: the 18th allocation only fits
     by shedding, and the cache drains entirely before alloc gives up. *)
  for _ = 1 to 20 do
    Alcotest.(check bool) "alloc sheds instead of failing" true
      (St.alloc_slots t ~n:1 <> None)
  done;
  Alcotest.(check int) "cache fully shed" 0 (St.cache_slots t);
  Alcotest.(check int) "evictions counted" 3
    Sim.Stats.(get stats swap_cache_evictions);
  Alcotest.(check bool) "then exhaustion" true (St.alloc_slots t ~n:1 = None)

let () =
  Alcotest.run "swap"
    [
      ( "swapmap",
        [
          Alcotest.test_case "basic" `Quick test_swapmap_basic;
          Alcotest.test_case "contiguity" `Quick test_swapmap_contiguity;
          Alcotest.test_case "exhaustion" `Quick test_swapmap_exhaustion;
          Alcotest.test_case "errors" `Quick test_swapmap_errors;
          QCheck_alcotest.to_alcotest prop_swapmap_accounting;
        ] );
      ( "swapdev",
        [
          Alcotest.test_case "roundtrip" `Quick test_swapdev_roundtrip;
          Alcotest.test_case "cluster one op" `Quick test_swapdev_cluster_is_one_op;
          Alcotest.test_case "free discards" `Quick test_swapdev_free_discards;
        ] );
      ( "swaptier",
        [
          Alcotest.test_case "priority and striping" `Quick
            test_tier_priority_and_striping;
          Alcotest.test_case "death and failover" `Quick test_tier_death_failover;
          Alcotest.test_case "no space" `Quick test_tier_no_space;
          Alcotest.test_case "drain migration" `Quick test_tier_drain_migration;
          Alcotest.test_case "swapoff drains" `Quick test_swapoff_drains;
          Alcotest.test_case "swapcache basics" `Quick test_swapcache_basics;
          Alcotest.test_case "swapcache shed" `Quick
            test_swapcache_shed_under_pressure;
        ] );
    ]
