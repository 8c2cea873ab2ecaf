module Vmtypes = Vmiface.Vmtypes
open Uvm_map

type mode = Share | Copy | Donate

let clone_entry_at t (e : entry) ~spage ~cow ~needs_copy =
  let npgs = entry_npages e in
  Sim.Stats.(incr (Uvm_sys.stats t.sys) map_entries_allocated);
  Sim.Lifecycle.note_entry_alloc (Physmem.lifecycle (Uvm_sys.physmem t.sys));
  Uvm_sys.charge_struct_alloc t.sys;
  {
    spage;
    epage = spage + npgs;
    obj = e.obj;
    objoff = e.objoff;
    amap = e.amap;
    amapoff = e.amapoff;
    prot = e.prot;
    maxprot = e.maxprot;
    inh = e.inh;
    advice = e.advice;
    wired = 0;
    cow;
    needs_copy;
    prev = None;
    next = None;
  }

let extract ~src ~spage ~npages ~dst mode =
  let sys = src.sys in
  let epage = spage + npages in
  Uvm_map.lock src;
  Uvm_map.clip_range src ~spage ~epage;
  let picked = Uvm_map.entries_in_range src ~spage ~epage in
  let covered = List.fold_left (fun n e -> n + entry_npages e) 0 picked in
  if covered <> npages then begin
    Uvm_map.unlock src;
    invalid_arg "Uvm_mexp.extract: source range has unmapped holes"
  end;
  let dst_base = Uvm_map.find_space dst ~npages in
  let place (e : entry) =
    let at = dst_base + (e.spage - spage) in
    match mode with
    | Share ->
        (match e.amap with
        | Some am ->
            Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e);
            am.Uvm_amap.shared <- true
        | None -> ());
        (match e.obj with
        | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
        | None -> ());
        let fresh =
          clone_entry_at dst e ~spage:at ~cow:e.cow ~needs_copy:e.needs_copy
        in
        Uvm_map.insert_entry_raw dst fresh
    | Copy ->
        (match e.amap with
        | Some am ->
            Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e)
        | None -> ());
        (match e.obj with
        | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
        | None -> ());
        (* COW snapshot both ways: write-protect the source's resident
           pages and mark both sides needs-copy (same dance as fork). *)
        if e.amap <> None then e.needs_copy <- true;
        Pmap.restrict_range src.pmap ~lo:e.spage ~hi:e.epage
          ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
        let fresh = clone_entry_at dst e ~spage:at ~cow:true ~needs_copy:true in
        Uvm_map.insert_entry_raw dst fresh
    | Donate ->
        (* Unlinking happens below, once, for all picked entries. *)
        ()
  in
  List.iter place picked;
  (match mode with
  | Donate ->
      List.iter
        (fun (e : entry) ->
          let at = dst_base + (e.spage - spage) in
          Uvm_map.unlink src e;
          Pmap.remove_range src.pmap ~lo:e.spage ~hi:e.epage;
          let npgs = entry_npages e in
          e.spage <- at;
          e.epage <- at + npgs;
          e.wired <- 0;
          Uvm_map.insert_entry_raw dst e)
        picked
  | Share | Copy -> ());
  Uvm_map.unlock src;
  Sim.Stats.(incr (Uvm_sys.stats sys) page_transfers);
  dst_base

let import_anons ~dst ~anons ~prot =
  let sys = dst.sys in
  let npages = List.length anons in
  if npages = 0 then invalid_arg "Uvm_mexp.import_anons: no anons";
  let spage = Uvm_map.find_space dst ~npages in
  let entry =
    Uvm_map.insert dst ~spage ~npages ~obj:None ~objoff:0 ~prot
      ~maxprot:Pmap.Prot.rwx ~inh:Vmtypes.Inh_copy ~advice:Vmtypes.Adv_normal
      ~cow:true ~needs_copy:false ~merge:false
  in
  let am = Uvm_amap.create sys ~nslots:npages in
  List.iteri (fun i anon -> Uvm_amap.add sys am ~slot:i anon) anons;
  entry.amap <- Some am;
  entry.amapoff <- 0;
  Sim.Stats.(incr (Uvm_sys.stats sys) page_transfers);
  spage
