(* The counter table.  Each counter is declared exactly once, below:
   that line fixes its array index, its name and its position in
   [to_rows].  Every operation is a loop over the arrays.  Durations are
   a separate float array, so [incr] cannot reach them. *)

type counter = int
type duration = int
type slot = Count of counter | Dur of duration

(* Filled while this module initialises, then frozen into [rows]. *)
let decls = ref []
let ncounters = ref 0
let ndurations = ref 0

let declare n slot name =
  let i = !n in
  n := i + 1;
  decls := (name, slot i) :: !decls;
  i

let counter = declare ncounters (fun i -> Count i)
let duration = declare ndurations (fun i -> Dur i)

let faults = counter "faults"
let fault_ahead_mapped = counter "fault_ahead_mapped"
let fault_ahead_used = counter "fault_ahead_used"
let fault_ahead_wasted = counter "fault_ahead_wasted"
let pageins = counter "pageins"
let pageouts = counter "pageouts"
let disk_read_ops = counter "disk_read_ops"
let disk_write_ops = counter "disk_write_ops"
let disk_pages_read = counter "disk_pages_read"
let disk_pages_written = counter "disk_pages_written"
let pages_copied = counter "pages_copied"
let pages_zeroed = counter "pages_zeroed"
let map_entries_allocated = counter "map_entries_allocated"
let map_entries_freed = counter "map_entries_freed"
let objects_allocated = counter "objects_allocated"
let pager_structs_allocated = counter "pager_structs_allocated"
let hash_lookups = counter "hash_lookups"
let collapse_attempts = counter "collapse_attempts"
let collapse_successes = counter "collapse_successes"
let anons_allocated = counter "anons_allocated"
let anons_freed = counter "anons_freed"
let amaps_allocated = counter "amaps_allocated"
let amaps_freed = counter "amaps_freed"
let shadow_objects_allocated = counter "shadow_objects_allocated"
let obj_cache_hits = counter "obj_cache_hits"
let obj_cache_misses = counter "obj_cache_misses"
let obj_cache_evictions = counter "obj_cache_evictions"
let vnode_recycles = counter "vnode_recycles"
let cow_copies = counter "cow_copies"
let cow_reuses = counter "cow_reuses"
let loanouts = counter "loanouts"
let pages_loaned = counter "pages_loaned"
let page_transfers = counter "page_transfers"
let swap_slots_allocated = counter "swap_slots_allocated"
let swap_slots_freed = counter "swap_slots_freed"
let pmap_enters = counter "pmap_enters"
let pmap_removes = counter "pmap_removes"
let pmap_protects = counter "pmap_protects"
let lock_acquisitions = counter "lock_acquisitions"
let map_lock_held_us = duration "map_lock_held_us"
let io_errors_injected = counter "io_errors_injected"
let pageout_retries = counter "pageout_retries"
let pageouts_recovered = counter "pageouts_recovered"
let pageins_failed = counter "pageins_failed"
let bad_slots = counter "bad_slots"
let swap_full_events = counter "swap_full_events"
let ipc_sends = counter "ipc_sends"
let ipc_recvs = counter "ipc_recvs"
let ipc_bytes_copied = counter "ipc_bytes_copied"
let ipc_bytes_loaned = counter "ipc_bytes_loaned"
let ipc_bytes_mapped = counter "ipc_bytes_mapped"
let vslock_ios = counter "vslock_ios"
let swap_devices_dead = counter "swap_devices_dead"
let swap_failovers = counter "swap_failovers"
let swap_migrations = counter "swap_migrations"
let swap_cache_fills = counter "swap_cache_fills"
let swap_cache_hits = counter "swap_cache_hits"
let swap_cache_evictions = counter "swap_cache_evictions"
let oom_kills = counter "oom_kills"
let rlimit_denials = counter "rlimit_denials"
let proc_swapouts = counter "proc_swapouts"
let proc_swapins = counter "proc_swapins"
let reserve_grabs = counter "reserve_grabs"
let lookup_fast_hits = counter "lookup_fast_hits"
let lookup_locked = counter "lookup_locked"
let cache_alloc_hits = counter "cache_alloc_hits"
let cache_alloc_misses = counter "cache_alloc_misses"
let cache_refills = counter "cache_refills"
let cache_drains = counter "cache_drains"
let cache_steals = counter "cache_steals"
let line_bounces = counter "line_bounces"
let lock_wait_us = duration "lock_wait_us"
(* Gauges: levels that the machine's sync hook [set]s. *)
let free_pages = counter "free_pages"
let active_pages = counter "active_pages"
let inactive_pages = counter "inactive_pages"
let swap_slots_used = counter "swap_slots_used"
let swapcache_pages = counter "swapcache_pages"

let rows = List.rev !decls
let nc = !ncounters
let nd = !ndurations

let counters = List.init nc Fun.id
let durations = List.init nd Fun.id

(* Counter indexes rise in declaration order, so filtering keeps them. *)
let names =
  Array.of_list
    (List.filter_map (function n, Count _ -> Some n | _, Dur _ -> None) rows)

let name c = names.(c)

type t = { counts : int array; us : float array }

let create () = { counts = Array.make nc 0; us = Array.make nd 0.0 }

let reset t =
  Array.fill t.counts 0 nc 0;
  Array.fill t.us 0 nd 0.0

let snapshot t = { counts = Array.copy t.counts; us = Array.copy t.us }

let blit ~src ~dst =
  Array.blit src.counts 0 dst.counts 0 nc;
  Array.blit src.us 0 dst.us 0 nd

let incr t c = t.counts.(c) <- t.counts.(c) + 1
let bump t c n = t.counts.(c) <- t.counts.(c) + n
let get t c = t.counts.(c)
let set t c v = t.counts.(c) <- v
let add_us t d us = t.us.(d) <- t.us.(d) +. us
let get_us t d = t.us.(d)

let add_delta ~into ~after ~before =
  for i = 0 to nc - 1 do
    into.counts.(i) <- into.counts.(i) + (after.counts.(i) - before.counts.(i))
  done;
  for i = 0 to nd - 1 do
    into.us.(i) <- into.us.(i) +. (after.us.(i) -. before.us.(i))
  done

(* Never written: the [before] of a plain [add]. *)
let zero = create ()
let add ~into d = add_delta ~into ~after:d ~before:zero

let diff ~after ~before =
  let d = create () in
  add_delta ~into:d ~after ~before;
  d

let to_rows t =
  List.map
    (function
      | n, Count i -> (n, float_of_int t.counts.(i))
      | n, Dur i -> (n, t.us.(i)))
    rows
