(** Event counters shared by every layer of the simulator.

    A single [Stats.t] is threaded through a simulated system; the
    experiments read counters (page faults for Table 2, map entries for
    Table 1, disk operations for Figures 2/5, ...) and tests assert
    accounting invariants against them.

    [t] is a table indexed by the counters declared below, one value
    per counter.  A {!counter} holds an int; a {!duration} holds an
    exact float sum of simulated microseconds.  Gauges are counters
    that hold a level rather than a flow: the machine's sync hook
    {!set}s them just before export or sampling. *)

type t
type counter
type duration

(** {1 Counters}

    Declaration order is the order of {!to_rows}. *)

val faults : counter  (** page faults taken *)

val fault_ahead_mapped : counter
(** resident neighbours mapped by fault-ahead *)

val fault_ahead_used : counter  (** fault-ahead pages touched before eviction *)

val fault_ahead_wasted : counter
(** fault-ahead pages evicted/refaulted untouched *)

val pageins : counter  (** pages read from backing store *)

val pageouts : counter  (** pages written to backing store *)

val disk_read_ops : counter
val disk_write_ops : counter
val disk_pages_read : counter
val disk_pages_written : counter
val pages_copied : counter
val pages_zeroed : counter
val map_entries_allocated : counter
val map_entries_freed : counter
val objects_allocated : counter
val pager_structs_allocated : counter
val hash_lookups : counter
val collapse_attempts : counter
val collapse_successes : counter
val anons_allocated : counter
val anons_freed : counter
val amaps_allocated : counter
val amaps_freed : counter
val shadow_objects_allocated : counter
val obj_cache_hits : counter
val obj_cache_misses : counter
val obj_cache_evictions : counter
val vnode_recycles : counter

val cow_copies : counter  (** COW faults resolved by copying *)

val cow_reuses : counter  (** COW faults resolved in place (refs = 1) *)

val loanouts : counter
val pages_loaned : counter
val page_transfers : counter
val swap_slots_allocated : counter
val swap_slots_freed : counter
val pmap_enters : counter
val pmap_removes : counter
val pmap_protects : counter
val lock_acquisitions : counter

val map_lock_held_us : duration  (** total simulated time map locks were held *)

val io_errors_injected : counter  (** disk transfers failed by the fault plan *)

val pageout_retries : counter
(** pageout attempts repeated after a transient error *)

val pageouts_recovered : counter
(** pageouts that succeeded after retry/reassignment *)

val pageins_failed : counter  (** pageins abandoned after exhausting retries *)

val bad_slots : counter  (** swap slots blacklisted as bad media *)

val swap_full_events : counter
(** times slot allocation failed: swap exhausted *)

val ipc_sends : counter  (** IPC send syscalls accepted *)

val ipc_recvs : counter  (** IPC recv syscalls that returned data *)

val ipc_bytes_copied : counter  (** IPC payload bytes moved by copying *)

val ipc_bytes_loaned : counter  (** IPC payload bytes moved by page loanout *)

val ipc_bytes_mapped : counter
(** IPC payload bytes moved by map-entry passing *)

val vslock_ios : counter  (** physio-style transfers over a vslock'd buffer *)

val swap_devices_dead : counter  (** whole swap devices declared dead *)

val swap_failovers : counter  (** pageout reassignments that crossed devices *)

val swap_migrations : counter
(** slots drained from a dying device to a healthy one *)

val swap_cache_fills : counter
(** clean vnode pages spilled into the swapcache *)

val swap_cache_hits : counter  (** refaults served from the swapcache *)

val swap_cache_evictions : counter
(** cache entries shed (pressure, death, invalidation) *)

val oom_kills : counter  (** processes reaped by the OOM victim policy *)

val rlimit_denials : counter
(** allocations refused by a per-process resource limit *)

val proc_swapouts : counter
(** whole processes swapped out under sustained shortage *)

val proc_swapins : counter  (** swapped-out processes brought back in *)

val reserve_grabs : counter
(** privileged allocations served from the kernel reserve *)

val lookup_fast_hits : counter
(** page lookups served by the lockless fast path *)

val lookup_locked : counter  (** page lookups that took the locked path *)

val cache_alloc_hits : counter
(** page allocations served from a per-CPU free cache *)

val cache_alloc_misses : counter
(** allocations that fell through to the colored queues *)

val cache_refills : counter
(** per-CPU cache refill batches pulled from the queues *)

val cache_drains : counter
(** per-CPU cache drains back to the colored queues *)

val cache_steals : counter
(** cache fills served outside the CPU's preferred colors *)

val line_bounces : counter
(** cross-CPU lock-line transfers charged by the SMP model *)

val lock_wait_us : duration
(** simulated time spent waiting on contended locks *)

val free_pages : counter  (** gauge: free-list depth at last sync *)

val active_pages : counter  (** gauge: active-queue depth at last sync *)

val inactive_pages : counter  (** gauge: inactive-queue depth at last sync *)

val swap_slots_used : counter  (** gauge: slots in use across all tiers *)

val swapcache_pages : counter  (** gauge: swapcache entries held *)

(** {1 Operations} *)

val create : unit -> t
(** A table with every counter and duration at zero. *)

val reset : t -> unit

val incr : t -> counter -> unit
val bump : t -> counter -> int -> unit
val get : t -> counter -> int
val set : t -> counter -> int -> unit
val add_us : t -> duration -> float -> unit
val get_us : t -> duration -> float

val name : counter -> string
(** The counter's row name in {!to_rows}. *)

val counters : counter list
val durations : duration list
(** Every counter (duration), in declaration order. *)

val snapshot : t -> t
(** An independent copy (for before/after deltas in experiments). *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s values, allocating nothing. *)

val diff : after:t -> before:t -> t
(** Entry-wise subtraction. *)

val add : into:t -> t -> unit
(** Entry-wise sum, gauges included.  Summing quantum deltas (see
    {!add_delta}) into a per-CPU shard makes the shard's gauge the net
    change of that level while the CPU ran. *)

val add_delta : into:t -> after:t -> before:t -> unit
(** [add ~into (diff ~after ~before)] without the intermediate table. *)

val to_rows : t -> (string * float) list
(** All counters as printable rows, in declaration order; ints are
    converted with [float_of_int]. *)
