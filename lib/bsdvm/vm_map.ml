(** BSD VM memory maps.

    Structurally like UVM's (a sorted entry list — UVM retained this part
    of the design, paper §1.2) but with the baseline's behaviours the paper
    criticises: no entry merging, every wiring recorded by clipping map
    entries, and a single-phase unmap that holds the map lock through
    object deallocation — including any I/O it triggers (paper §3.1). *)

module Vmtypes = Vmiface.Vmtypes

type entry = {
  mutable spage : int;
  mutable epage : int;
  mutable obj : Vm_object.t option;
  mutable objoff : int;
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
  sys : Bsd_sys.t;
  cache : Vm_objcache.t;
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

let create sys ~cache ~pmap ~lo ~hi ~kernel =
  {
    sys;
    cache;
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

let stats t = Bsd_sys.stats t.sys
let costs t = Bsd_sys.costs t.sys
let charge t us = Bsd_sys.charge t.sys us
let lifecycle t = Physmem.lifecycle (Bsd_sys.physmem t.sys)

(* Lock-observatory handle, registered on first lock; the registry
   renders the lock:map span and the legacy map_lock event/latency
   series, while the cost charge and Stats counters stay here. *)
let lock_handle t =
  match t.lockh with
  | Some l -> l
  | None ->
      let l =
        Sim.Lockstat.register (Bsd_sys.locks t.sys) ~cls:"map"
          (if t.kernel then "kernel_map" else "user_map")
      in
      t.lockh <- Some l;
      l

let lock t =
  assert (t.locked_since = None);
  charge t (costs t).Sim.Cost_model.lock_acquire;
  Sim.Stats.(incr (stats t) lock_acquisitions);
  Sim.Lockstat.acquire (Bsd_sys.locks t.sys) (lock_handle t)
    ~mode:Sim.Lockstat.Write;
  t.locked_since <- Some (Sim.Simclock.now (Bsd_sys.clock t.sys))

let is_locked t = t.locked_since <> None

let unlock t =
  match t.locked_since with
  | None -> invalid_arg "Vm_map.unlock: not locked"
  | Some since ->
      let held = Sim.Simclock.now (Bsd_sys.clock t.sys) -. since in
      Sim.Stats.(add_us (stats t) map_lock_held_us held);
      t.locked_since <- None;
      Sim.Lockstat.release (Bsd_sys.locks t.sys) (lock_handle t)

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

let alloc_entry t ~spage ~epage ~obj ~objoff ~prot ~maxprot ~inh ~advice
    ~wired ~cow ~needs_copy =
  Sim.Stats.(incr (stats t) map_entries_allocated);
  Sim.Lifecycle.note_entry_alloc (lifecycle t);
  charge t (costs t).Sim.Cost_model.struct_alloc;
  {
    spage;
    epage;
    obj;
    objoff;
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
  (match e.prev with Some p -> p.next <- e.next | None -> t.first <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> ());
  e.prev <- None;
  e.next <- None;
  (match t.hint with Some h when h == e -> t.hint <- None | _ -> ());
  t.nentries <- t.nentries - 1

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
    match t.hint with Some h when h.spage <= vpn -> Some h | _ -> t.first
  in
  let start = match start with Some h when h.spage > vpn -> t.first | s -> s in
  let _, found = search t ~from:start ~vpn in
  (match found with Some e -> t.hint <- Some e | None -> ());
  found

let range_free t ~spage ~npages =
  let epage = spage + npages in
  spage >= t.lo && epage <= t.hi
  && not (List.exists (fun e -> e.spage < epage && spage < e.epage) (entries t))

let find_space t ~npages =
  let rec go pos = function
    | None -> if pos + npages <= t.hi then pos else raise Not_found
    | Some e ->
        if e.spage - pos >= npages then pos else go (max pos e.epage) e.next
  in
  go t.lo t.first

(* vm_map_find: insert with *default* attributes — the first step of the
   baseline's two-step mapping (paper §3.1).  Non-default attributes
   require separate relock-and-change calls. *)
let insert_default t ~spage ~npages ~obj ~objoff ~cow ~needs_copy =
  if npages < 1 then invalid_arg "Vm_map.insert_default: npages must be >= 1";
  lock t;
  if not (range_free t ~spage ~npages) then begin
    unlock t;
    invalid_arg "Vm_map.insert_default: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let e =
    alloc_entry t ~spage ~epage:(spage + npages) ~obj ~objoff
      ~prot:Pmap.Prot.rw ~maxprot:Pmap.Prot.rwx ~inh:Vmtypes.Inh_copy
      ~advice:Vmtypes.Adv_normal ~wired:0 ~cow ~needs_copy
  in
  let prev, _ = search t ~from:t.first ~vpn:spage in
  link_after t prev e;
  t.hint <- Some e;
  unlock t;
  e

let clip t e vpn =
  assert (vpn > e.spage && vpn < e.epage);
  let delta = vpn - e.spage in
  let tail =
    alloc_entry t ~spage:vpn ~epage:e.epage ~obj:e.obj
      ~objoff:(e.objoff + delta) ~prot:e.prot ~maxprot:e.maxprot ~inh:e.inh
      ~advice:e.advice ~wired:e.wired ~cow:e.cow ~needs_copy:e.needs_copy
  in
  e.epage <- vpn;
  (match e.obj with Some o -> Vm_object.reference o | None -> ());
  link_after t (Some e) tail

let clip_range t ~spage ~epage =
  iter_entries (fun e -> if e.spage < spage && spage < e.epage then clip t e spage) t;
  iter_entries (fun e -> if e.spage < epage && epage < e.epage then clip t e epage) t

let entries_in_range t ~spage ~epage =
  List.filter (fun e -> e.spage >= spage && e.epage <= epage) (entries t)

(* Single-phase unmap: the reference drops — and any I/O they trigger —
   happen while the map lock is still held, blocking other threads
   (the inefficiency UVM's two-phase unmap removes). *)
let unmap t ~spage ~npages =
  let epage = spage + npages in
  lock t;
  clip_range t ~spage ~epage;
  let doomed = entries_in_range t ~spage ~epage in
  List.iter
    (fun e ->
      charge t (costs t).Sim.Cost_model.map_remove;
      unlink t e)
    doomed;
  Pmap.remove_range t.pmap ~lo:spage ~hi:epage;
  List.iter
    (fun e ->
      (match e.obj with
      | Some o -> Vm_objcache.deref t.sys t.cache o
      | None -> ());
      free_entry t e)
    doomed;
  unlock t

(* Attribute changes re-lock the map and search for the range again — the
   second step of two-step mapping. *)
let apply_in_range t ~spage ~npages f =
  let epage = spage + npages in
  lock t;
  (* The relookup cost: find the range again. *)
  ignore (lookup t ~vpn:spage);
  clip_range t ~spage ~epage;
  List.iter f (entries_in_range t ~spage ~epage);
  unlock t

let protect t ~spage ~npages ~prot =
  apply_in_range t ~spage ~npages (fun e ->
      if not (Pmap.Prot.subsumes e.maxprot prot) then
        invalid_arg "Vm_map.protect: exceeds maxprot";
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
      if e.wired <= 0 then invalid_arg "Vm_map.mark_unwired: not wired";
      e.wired <- e.wired - 1)

let insert_entry_raw t e =
  lock t;
  if not (range_free t ~spage:e.spage ~npages:(entry_npages e)) then begin
    unlock t;
    invalid_arg "Vm_map.insert_entry_raw: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let prev, _ = search t ~from:t.first ~vpn:e.spage in
  link_after t prev e;
  unlock t

let destroy t =
  if t.nentries > 0 then unmap t ~spage:t.lo ~npages:(t.hi - t.lo)

let check_invariants t =
  let rec go count pos = function
    | None ->
        if count <> t.nentries then Error "nentries mismatch" else Ok ()
    | Some e ->
        if e.spage < pos then Error "entries overlap or unsorted"
        else if e.spage >= e.epage then Error "empty entry"
        else if e.spage < t.lo || e.epage > t.hi then Error "out of bounds"
        else go (count + 1) e.epage e.next
  in
  go 0 t.lo t.first
