(* Sim.Stats table invariants: every declared counter is reported once,
   under its own name, and every array operation covers every entry,
   durations included. *)

module S = Sim.Stats

(* Today's row names, in the order every export prints them. *)
let expected_names =
  [
    "faults"; "fault_ahead_mapped"; "fault_ahead_used"; "fault_ahead_wasted";
    "pageins"; "pageouts"; "disk_read_ops"; "disk_write_ops";
    "disk_pages_read"; "disk_pages_written"; "pages_copied"; "pages_zeroed";
    "map_entries_allocated"; "map_entries_freed"; "objects_allocated";
    "pager_structs_allocated"; "hash_lookups"; "collapse_attempts";
    "collapse_successes"; "anons_allocated"; "anons_freed"; "amaps_allocated";
    "amaps_freed"; "shadow_objects_allocated"; "obj_cache_hits";
    "obj_cache_misses"; "obj_cache_evictions"; "vnode_recycles"; "cow_copies";
    "cow_reuses"; "loanouts"; "pages_loaned"; "page_transfers";
    "swap_slots_allocated"; "swap_slots_freed"; "pmap_enters"; "pmap_removes";
    "pmap_protects"; "lock_acquisitions"; "map_lock_held_us";
    "io_errors_injected"; "pageout_retries"; "pageouts_recovered";
    "pageins_failed"; "bad_slots"; "swap_full_events"; "ipc_sends";
    "ipc_recvs"; "ipc_bytes_copied"; "ipc_bytes_loaned"; "ipc_bytes_mapped";
    "vslock_ios"; "swap_devices_dead"; "swap_failovers"; "swap_migrations";
    "swap_cache_fills"; "swap_cache_hits"; "swap_cache_evictions";
    "oom_kills"; "rlimit_denials"; "proc_swapouts"; "proc_swapins";
    "reserve_grabs"; "lookup_fast_hits"; "lookup_locked"; "cache_alloc_hits";
    "cache_alloc_misses"; "cache_refills"; "cache_drains"; "cache_steals";
    "line_bounces"; "lock_wait_us"; "free_pages"; "active_pages";
    "inactive_pages"; "swap_slots_used"; "swapcache_pages";
  ]

(* A table whose entries are all distinct: counter [i] holds [seed + i],
   duration [j] holds [seed + j + 0.5]. *)
let filled seed =
  let t = S.create () in
  List.iteri (fun i c -> S.set t c (seed + i)) S.counters;
  List.iteri
    (fun j d -> S.add_us t d (float_of_int (seed + j) +. 0.5))
    S.durations;
  t

(* Check every entry of [t] against [count i] and [us j]. *)
let check_entries what t ~count ~us =
  List.iteri
    (fun i c ->
      Alcotest.(check int) (what ^ " " ^ S.name c) (count i) (S.get t c))
    S.counters;
  List.iteri
    (fun j d ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s duration %d" what j)
        (us j) (S.get_us t d))
    S.durations

let test_to_rows_complete () =
  let t = filled 100 in
  let rows = S.to_rows t in
  let names = List.map fst rows in
  Alcotest.(check (list string)) "row names, in order" expected_names names;
  List.iter
    (fun n -> Alcotest.(check bool) "name non-empty" true (n <> ""))
    names;
  Alcotest.(check int)
    "row names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* Each counter's row reports that counter's value under its name. *)
  List.iter
    (fun c ->
      Alcotest.(check (float 0.0))
        ("row " ^ S.name c)
        (float_of_int (S.get t c))
        (List.assoc (S.name c) rows))
    S.counters;
  Alcotest.(check int) "two durations" 2 (List.length S.durations);
  Alcotest.(check (float 0.0))
    "row map_lock_held_us" (S.get_us t S.map_lock_held_us)
    (List.assoc "map_lock_held_us" rows);
  Alcotest.(check (float 0.0))
    "row lock_wait_us" (S.get_us t S.lock_wait_us)
    (List.assoc "lock_wait_us" rows)

let test_snapshot_independent () =
  let t = filled 10 in
  let snap = S.snapshot t in
  let count i = 10 + i and us j = float_of_int (10 + j) +. 0.5 in
  check_entries "snapshot" snap ~count ~us;
  (* The snapshot stays put when the original moves on. *)
  S.blit ~src:(filled 1000) ~dst:t;
  check_entries "snapshot unchanged" snap ~count ~us;
  check_entries "blit" t ~count:(fun i -> 1000 + i) ~us:(fun j ->
      float_of_int (1000 + j) +. 0.5)

let test_diff_round_trip () =
  let before = filled 10 and after = filled 250 in
  check_entries "diff" (S.diff ~after ~before)
    ~count:(fun _ -> 240)
    ~us:(fun _ -> 240.0);
  (* diff ~after:x ~before:(zeros) round-trips x. *)
  check_entries "identity diff"
    (S.diff ~after ~before:(S.create ()))
    ~count:(fun i -> 250 + i)
    ~us:(fun j -> float_of_int (250 + j) +. 0.5)

let test_add () =
  let into = filled 10 in
  S.add ~into (filled 250);
  check_entries "add" into ~count:(fun i -> 260 + (2 * i)) ~us:(fun j ->
      float_of_int (260 + (2 * j)) +. 1.0);
  (* add_delta = add of a diff, without the intermediate table. *)
  let into = filled 10 in
  S.add_delta ~into ~after:(filled 250) ~before:(filled 5);
  check_entries "add_delta" into ~count:(fun i -> 255 + i) ~us:(fun j ->
      float_of_int (255 + j) +. 0.5)

let test_reset () =
  let t = filled 7 in
  S.reset t;
  check_entries "reset" t ~count:(fun _ -> 0) ~us:(fun _ -> 0.0)

let test_diff () =
  let a = S.create () in
  S.set a S.faults 10;
  S.set a S.pageins 3;
  let before = S.snapshot a in
  S.set a S.faults 25;
  let d = S.diff ~after:a ~before in
  Alcotest.(check int) "delta faults" 15 (S.get d S.faults);
  Alcotest.(check int) "delta pageins" 0 (S.get d S.pageins)

let test_rows () =
  let s = S.create () in
  S.bump s S.cow_copies 4;
  let rows = S.to_rows s in
  Alcotest.(check (float 0.0)) "row value" 4.0 (List.assoc "cow_copies" rows)

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          Alcotest.test_case "to_rows completeness" `Quick test_to_rows_complete;
          Alcotest.test_case "snapshot independence" `Quick
            test_snapshot_independent;
          Alcotest.test_case "diff round-trip" `Quick test_diff_round_trip;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "rows" `Quick test_rows;
        ] );
    ]
