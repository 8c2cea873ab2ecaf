module Vmtypes = Vmiface.Vmtypes

type entry = {
  mutable spage : int;
  mutable epage : int;
  mutable obj : Uvm_object.t option;
  mutable objoff : int;
  mutable amap : Uvm_amap.t option;
  mutable amapoff : int;
  mutable prot : Pmap.Prot.t;
  mutable maxprot : Pmap.Prot.t;
  mutable inh : Vmtypes.inherit_mode;
  mutable advice : Vmtypes.advice;
  mutable wired : int;
  mutable cow : bool;
  mutable needs_copy : bool;
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  sys : Uvm_sys.t;
  pmap : Pmap.t;
  lo : int;
  hi : int;
  kernel : bool;
  mutable first : entry option;
  mutable nentries : int;
  mutable hint : entry option;
  mutable locked_since : float option;
  mutable lockh : Sim.Lockstat.lock option;
}

let create sys ~pmap ~lo ~hi ~kernel =
  if lo < 0 || hi <= lo then invalid_arg "Uvm_map.create: bad bounds";
  {
    sys;
    pmap;
    lo;
    hi;
    kernel;
    first = None;
    nentries = 0;
    hint = None;
    locked_since = None;
    lockh = None;
  }

let stats t = Uvm_sys.stats t.sys
let costs t = Uvm_sys.costs t.sys
let charge t us = Uvm_sys.charge t.sys us
let lifecycle t = Physmem.lifecycle (Uvm_sys.physmem t.sys)

(* The map's entry in the lock observatory, registered on first lock.
   The registry renders the lock:map span and the legacy map_lock
   event/latency series; the cost charge and the Stats counters stay
   here because they predate tracing and are always on. *)
let lock_handle t =
  match t.lockh with
  | Some l -> l
  | None ->
      let l =
        Sim.Lockstat.register (Uvm_sys.locks t.sys) ~cls:"map"
          (if t.kernel then "kernel_map" else "user_map")
      in
      t.lockh <- Some l;
      l

let lock t =
  assert (t.locked_since = None);
  charge t (costs t).Sim.Cost_model.lock_acquire;
  Sim.Stats.(incr (stats t) lock_acquisitions);
  Sim.Lockstat.acquire (Uvm_sys.locks t.sys) (lock_handle t)
    ~mode:Sim.Lockstat.Write;
  t.locked_since <- Some (Sim.Simclock.now (Uvm_sys.clock t.sys))

let is_locked t = t.locked_since <> None

let unlock t =
  match t.locked_since with
  | None -> invalid_arg "Uvm_map.unlock: not locked"
  | Some since ->
      let held = Sim.Simclock.now (Uvm_sys.clock t.sys) -. since in
      Sim.Stats.(add_us (stats t) map_lock_held_us held);
      t.locked_since <- None;
      Sim.Lockstat.release (Uvm_sys.locks t.sys) (lock_handle t)

let entry_npages e = e.epage - e.spage
let entry_count t = t.nentries

let iter_entries f t =
  let rec go = function
    | None -> ()
    | Some e ->
        let nxt = e.next in
        f e;
        go nxt
  in
  go t.first

let entries t =
  let acc = ref [] in
  iter_entries (fun e -> acc := e :: !acc) t;
  List.rev !acc

let alloc_entry t ~spage ~epage ~obj ~objoff ~amap ~amapoff ~prot ~maxprot ~inh
    ~advice ~wired ~cow ~needs_copy =
  Sim.Stats.(incr (stats t) map_entries_allocated);
  Sim.Lifecycle.note_entry_alloc (lifecycle t);
  charge t (costs t).Sim.Cost_model.struct_alloc;
  {
    spage;
    epage;
    obj;
    objoff;
    amap;
    amapoff;
    prot;
    maxprot;
    inh;
    advice;
    wired;
    cow;
    needs_copy;
    prev = None;
    next = None;
  }

let free_entry t (_e : entry) =
  Sim.Stats.(incr (stats t) map_entries_freed);
  Sim.Lifecycle.note_entry_free (lifecycle t)

(* Link [e] after [prev] (or at the head when [prev] is None). *)
let link_after t prev e =
  (match prev with
  | None ->
      e.next <- t.first;
      e.prev <- None;
      (match t.first with Some f -> f.prev <- Some e | None -> ());
      t.first <- Some e
  | Some p ->
      e.next <- p.next;
      e.prev <- Some p;
      (match p.next with Some n -> n.prev <- Some e | None -> ());
      p.next <- Some e);
  t.nentries <- t.nentries + 1

let unlink t e =
  (match e.prev with
  | Some p -> p.next <- e.next
  | None -> t.first <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> ());
  e.prev <- None;
  e.next <- None;
  (match t.hint with Some h when h == e -> t.hint <- None | _ -> ());
  t.nentries <- t.nentries - 1

(* Walk from an entry (or the head), charging per entry examined, to find
   the entry containing [vpn].  Also returns the last entry with
   [spage <= vpn] so callers can use it as an insertion point. *)
let search t ~from ~vpn =
  let search_cost = (costs t).Sim.Cost_model.map_entry_search in
  let rec go prev = function
    | None -> (prev, None)
    | Some e ->
        charge t search_cost;
        if vpn < e.spage then (prev, None)
        else if vpn < e.epage then (prev, Some e)
        else go (Some e) e.next
  in
  go None from

let lookup t ~vpn =
  let start =
    match t.hint with
    | Some h when h.spage <= vpn && h.prev <> None -> Some h
    | _ -> t.first
  in
  (* If the hint overshoots, fall back to a full scan from the head. *)
  let start = match start with Some h when h.spage > vpn -> t.first | s -> s in
  let _, found = search t ~from:start ~vpn in
  (match found with Some e -> t.hint <- Some e | None -> ());
  found

let range_free t ~spage ~npages =
  let epage = spage + npages in
  spage >= t.lo && epage <= t.hi
  && not
       (List.exists
          (fun e -> e.spage < epage && spage < e.epage)
          (entries t))

let find_space t ~npages =
  let rec go pos = function
    | None -> if pos + npages <= t.hi then pos else raise Not_found
    | Some e ->
        if e.spage - pos >= npages then pos
        else go (max pos e.epage) e.next
  in
  go t.lo t.first

(* Can [e] absorb an adjacent allocation with these attributes?  Only
   object-less, amap-less entries merge: they carry no offsets that could
   go out of sync (this is the kernel-map merging that keeps UVM's kernel
   entry count low, §3.2). *)
let can_merge e ~prot ~maxprot ~inh ~advice ~cow ~needs_copy =
  e.obj = None
  && (match e.amap with
     | None -> true
     | Some am ->
         (* The entry's slice must be extendable in place (amap_extend). *)
         am.Uvm_amap.refs = 1 && (not am.Uvm_amap.shared)
         && am.Uvm_amap.ppref = None
         && e.amapoff + entry_npages e = am.Uvm_amap.nslots)
  && Pmap.Prot.equal e.prot prot
  && Pmap.Prot.equal e.maxprot maxprot
  && e.inh = inh && e.advice = advice && e.wired = 0 && e.cow = cow
  && e.needs_copy = needs_copy

let insert t ~spage ~npages ~obj ~objoff ~prot ~maxprot ~inh ~advice ~cow
    ~needs_copy ~merge =
  if npages < 1 then invalid_arg "Uvm_map.insert: npages must be >= 1";
  lock t;
  let epage = spage + npages in
  if spage < t.lo || epage > t.hi then begin
    unlock t;
    invalid_arg "Uvm_map.insert: out of map bounds"
  end;
  (* Find the insertion point and check for overlap in one walk. *)
  let prev, overlapping = search t ~from:t.first ~vpn:spage in
  let overlaps =
    overlapping <> None
    ||
    match prev with
    | Some p when p.epage > spage -> true
    | _ -> (
        let nxt = match prev with Some p -> p.next | None -> t.first in
        match nxt with Some n -> n.spage < epage | None -> false)
  in
  if overlaps then begin
    unlock t;
    invalid_arg "Uvm_map.insert: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let merged =
    match (merge, obj, prev) with
    | true, None, Some p
      when p.epage = spage
           && can_merge p ~prot ~maxprot ~inh ~advice ~cow ~needs_copy ->
        (match p.amap with
        | Some am -> Uvm_amap.extend am ~by:npages
        | None -> ());
        p.epage <- epage;
        Some p
    | _ -> None
  in
  let e =
    match merged with
    | Some p -> p
    | None ->
        let e =
          alloc_entry t ~spage ~epage ~obj ~objoff ~amap:None ~amapoff:0 ~prot
            ~maxprot ~inh ~advice ~wired:0 ~cow ~needs_copy
        in
        link_after t prev e;
        e
  in
  t.hint <- Some e;
  unlock t;
  e

let insert_entry_raw t e =
  lock t;
  if not (range_free t ~spage:e.spage ~npages:(entry_npages e)) then begin
    unlock t;
    invalid_arg "Uvm_map.insert_entry_raw: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let prev, _ = search t ~from:t.first ~vpn:e.spage in
  link_after t prev e;
  unlock t

(* Split [e] at [vpn] (strictly inside it), producing the tail entry. *)
let clip t e vpn =
  assert (vpn > e.spage && vpn < e.epage);
  let delta = vpn - e.spage in
  let tail =
    alloc_entry t ~spage:vpn ~epage:e.epage ~obj:e.obj
      ~objoff:(e.objoff + delta) ~amap:e.amap ~amapoff:(e.amapoff + delta)
      ~prot:e.prot ~maxprot:e.maxprot ~inh:e.inh ~advice:e.advice
      ~wired:e.wired ~cow:e.cow ~needs_copy:e.needs_copy
  in
  e.epage <- vpn;
  (match e.obj with
  | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
  | None -> ());
  (match e.amap with Some am -> Uvm_amap.splitref am | None -> ());
  link_after t (Some e) tail

let clip_range t ~spage ~epage =
  iter_entries
    (fun e ->
      if e.spage < spage && spage < e.epage then clip t e spage)
    t;
  iter_entries
    (fun e ->
      if e.spage < epage && epage < e.epage then clip t e epage)
    t

let entries_in_range t ~spage ~epage =
  List.filter (fun e -> e.spage >= spage && e.epage <= epage) (entries t)

let overlapping_entries t ~spage ~epage =
  List.filter (fun e -> e.spage < epage && spage < e.epage) (entries t)

(* Drop an unlinked entry's references to its backing structures.  This is
   unmap phase 2 and runs with the map unlocked. *)
let drop_entry_refs t e =
  (match e.amap with
  | Some am ->
      Uvm_amap.unref_range t.sys am ~slotoff:e.amapoff ~len:(entry_npages e)
  | None -> ());
  (match e.obj with
  | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_detach ()
  | None -> ());
  free_entry t e

let unmap t ~spage ~npages =
  let epage = spage + npages in
  (* Phase 1: under the lock, unlink entries and invalidate translations. *)
  lock t;
  clip_range t ~spage ~epage;
  let doomed = entries_in_range t ~spage ~epage in
  List.iter
    (fun e ->
      charge t (costs t).Sim.Cost_model.map_remove;
      unlink t e)
    doomed;
  Pmap.remove_range t.pmap ~lo:spage ~hi:epage;
  unlock t;
  (* Phase 2: reference drops (possibly long I/O) without the lock. *)
  List.iter (drop_entry_refs t) doomed

let apply_in_range t ~spage ~npages f =
  let epage = spage + npages in
  lock t;
  clip_range t ~spage ~epage;
  List.iter f (entries_in_range t ~spage ~epage);
  unlock t

let protect t ~spage ~npages ~prot =
  apply_in_range t ~spage ~npages (fun e ->
      if not (Pmap.Prot.subsumes e.maxprot prot) then
        invalid_arg "Uvm_map.protect: exceeds maxprot";
      e.prot <- prot;
      Pmap.restrict_range t.pmap ~lo:e.spage ~hi:e.epage ~prot)

let set_inherit t ~spage ~npages inh =
  apply_in_range t ~spage ~npages (fun e -> e.inh <- inh)

let set_advice t ~spage ~npages advice =
  apply_in_range t ~spage ~npages (fun e -> e.advice <- advice)

let mark_wired t ~spage ~npages =
  apply_in_range t ~spage ~npages (fun e -> e.wired <- e.wired + 1)

let mark_unwired t ~spage ~npages =
  apply_in_range t ~spage ~npages (fun e ->
      if e.wired <= 0 then invalid_arg "Uvm_map.mark_unwired: not wired";
      e.wired <- e.wired - 1)

let destroy t =
  match overlapping_entries t ~spage:t.lo ~epage:t.hi with
  | [] -> ()
  | _ -> unmap t ~spage:t.lo ~npages:(t.hi - t.lo)

let check_invariants t =
  let rec go count pos = function
    | None ->
        if count <> t.nentries then
          Error (Printf.sprintf "nentries=%d but %d linked" t.nentries count)
        else Ok ()
    | Some e ->
        if e.spage < pos then Error "entries overlap or unsorted"
        else if e.spage >= e.epage then Error "empty entry"
        else if e.spage < t.lo || e.epage > t.hi then Error "entry out of bounds"
        else begin
          match e.amap with
          | Some am
            when e.amapoff < 0
                 || e.amapoff + entry_npages e > am.Uvm_amap.nslots ->
              Error "amap range exceeds amap"
          | _ -> go (count + 1) e.epage e.next
        end
  in
  go 0 t.lo t.first

let pp ppf t =
  Format.fprintf ppf "map[%d,%d) %d entries@." t.lo t.hi t.nentries;
  iter_entries
    (fun e ->
      Format.fprintf ppf "  [%6d,%6d) %a%s%s obj=%s amap=%s wired=%d@."
        e.spage e.epage Pmap.Prot.pp e.prot
        (if e.cow then " cow" else "")
        (if e.needs_copy then " nc" else "")
        (match e.obj with Some o -> string_of_int o.Uvm_object.id | None -> "-")
        (match e.amap with
        | Some a -> string_of_int a.Uvm_amap.id
        | None -> "-")
        e.wired)
    t
