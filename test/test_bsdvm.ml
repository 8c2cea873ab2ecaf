(* The BSD VM baseline: core correctness (it must be a *working* VM
   system) plus the pathologies the paper attributes to it: shadow
   chains, the collapse operation, swap leaks, the 100-object cache, the
   two-step mapping window, and wiring-induced fragmentation. *)

module Vt = Vmiface.Vmtypes
module B = Bsdvm.Sys

let mk () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 1024; swap_pages = 2048 }
  in
  let sys = B.boot ~config () in
  (sys, B.new_vmspace sys)

let stats sys = (B.machine sys).Vmiface.Machine.stats
let write sys vm ~vpn s = B.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string s)
let read sys vm ~vpn n = Bytes.to_string (B.read_bytes sys vm ~addr:(vpn * 4096) ~len:n)

let test_basic_cow () =
  let sys, p = mk () in
  let z = B.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "parent";
  let c = B.fork sys p in
  write sys c ~vpn:z "child!";
  Alcotest.(check string) "parent intact" "parent" (read sys p ~vpn:z 6);
  Alcotest.(check string) "child own" "child!" (read sys c ~vpn:z 6);
  B.destroy_vmspace sys c;
  B.destroy_vmspace sys p

let test_shadow_chain_grows () =
  let sys, p = mk () in
  let vn = Vfs.create_file (B.machine sys).Vmiface.Machine.vfs ~name:"/ch" ~size:12288 in
  let z = B.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
  write sys p ~vpn:(z + 1) "a";
  let shadows0 = Sim.Stats.(get (stats sys) shadow_objects_allocated) in
  let c = B.fork sys p in
  write sys p ~vpn:(z + 1) "b";
  write sys c ~vpn:(z + 2) "c";
  (* Paper Figure 3: two more shadow objects were allocated. *)
  Alcotest.(check int) "two new shadows" (shadows0 + 2)
    Sim.Stats.(get (stats sys) shadow_objects_allocated);
  let e = Option.get (Bsdvm.Map.lookup p.B.map ~vpn:(z + 1)) in
  let chain = Bsdvm.Object.chain_length (Option.get e.Bsdvm.Map.obj) in
  Alcotest.(check bool) "chain of 3+ (shadow2->shadow1->vnode)" true (chain >= 3);
  B.destroy_vmspace sys c;
  B.destroy_vmspace sys p

let test_swap_leak_scenario () =
  (* The exact §5.3 leak: after the child exits, the middle page in the
     first shadow object is unreachable but still allocated. *)
  let sys, p = mk () in
  let vn = Vfs.create_file (B.machine sys).Vmiface.Machine.vfs ~name:"/leak" ~size:12288 in
  let z = B.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
  write sys p ~vpn:(z + 1) "v1";
  let c = B.fork sys p in
  write sys p ~vpn:(z + 1) "v2";
  write sys c ~vpn:(z + 2) "cc";
  Alcotest.(check int) "no leak while both alive" 0 (B.leaked_pages sys);
  B.destroy_vmspace sys c;
  Alcotest.(check int) "one page leaked after child exit" 1 (B.leaked_pages sys);
  (* The leak is repaired only when a collapse happens to run; parent exit
     releases everything. *)
  B.destroy_vmspace sys p;
  Alcotest.(check int) "exit releases" 0 (B.leaked_pages sys)

let test_collapse_repairs_on_write () =
  let sys, p = mk () in
  let vn = Vfs.create_file (B.machine sys).Vmiface.Machine.vfs ~name:"/col" ~size:12288 in
  let z = B.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
  write sys p ~vpn:(z + 1) "v1";
  let c = B.fork sys p in
  write sys p ~vpn:(z + 1) "v2";
  B.destroy_vmspace sys c;
  (* Child gone: the next COW write fault attempts a collapse, which can
     now merge the chain and free the redundant middle page. *)
  let succ0 = Sim.Stats.(get (stats sys) collapse_successes) in
  write sys p ~vpn:z "xx";
  Alcotest.(check bool) "collapse succeeded" true
    (Sim.Stats.(get (stats sys) collapse_successes) > succ0);
  Alcotest.(check int) "leak repaired" 0 (B.leaked_pages sys);
  Alcotest.(check string) "data correct after collapse" "v2" (read sys p ~vpn:(z + 1) 2)

let test_object_cache_limit () =
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  (* Map and unmap 120 distinct files; the object cache holds only 100. *)
  for i = 0 to 119 do
    let vn = Vfs.create_file vfs ~name:(Printf.sprintf "/f%03d" i) ~size:4096 in
    let vpn = B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
    B.touch sys vm ~vpn Vt.Read;
    B.munmap sys vm ~vpn ~npages:1;
    Vfs.vrele vfs vn
  done;
  Alcotest.(check int) "cache capped at 100" 100 (Bsdvm.Objcache.cached_count sys.B.cache);
  Alcotest.(check int) "20 evictions" 20
    Sim.Stats.(get (stats sys) obj_cache_evictions);
  (* Re-mapping an evicted file re-reads from disk; a cached one doesn't. *)
  let ops0 = Sim.Stats.(get (stats sys) disk_read_ops) in
  let vn = Vfs.lookup vfs ~name:"/f119" in
  let vpn = B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  B.touch sys vm ~vpn Vt.Read;
  Alcotest.(check int) "cached file: no IO" ops0
    Sim.Stats.(get (stats sys) disk_read_ops);
  B.munmap sys vm ~vpn ~npages:1;
  Vfs.vrele vfs vn;
  let vn0 = Vfs.lookup vfs ~name:"/f000" in
  let vpn0 = B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn0, 0)) in
  B.touch sys vm ~vpn:vpn0 Vt.Read;
  Alcotest.(check bool) "evicted file re-read" true
    (Sim.Stats.(get (stats sys) disk_read_ops) > ops0)

let test_cache_pins_vnodes () =
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/pinned" ~size:4096 in
  let vpn = B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  B.touch sys vm ~vpn Vt.Read;
  B.munmap sys vm ~vpn ~npages:1;
  Vfs.vrele vfs vn;
  (* The VM object cache still holds a vnode reference, so the vnode is
     NOT on the vfs free list — the cross-layer conflict of paper §4. *)
  Alcotest.(check int) "vnode pinned by object cache" 1 vn.Vfs.Vnode.usecount;
  Alcotest.(check int) "not on free lru" 0 (Vfs.free_list_length vfs)

let test_two_step_window () =
  (* The paper's §3.1 security hole: between insert (default rw) and
     protect (ro), another thread can write through a mapping that was
     requested read-only. *)
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/secret" ~size:4096 in
  let sneaky_write_worked = ref false in
  sys.B.bsys.Bsdvm.State.two_step_probe <-
    Some
      (fun spage ->
        (* Runs between the two steps, like a second thread. *)
        try
          B.write_bytes sys vm ~addr:(spage * 4096) (Bytes.of_string "HACKED");
          sneaky_write_worked := true
        with Vt.Segv _ -> ());
  let vpn =
    B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0))
  in
  sys.B.bsys.Bsdvm.State.two_step_probe <- None;
  Alcotest.(check bool) "window exploited" true !sneaky_write_worked;
  (* After establishment the mapping is read-only as requested... *)
  (try
     B.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "late");
     Alcotest.fail "late write should fail"
   with Vt.Segv _ -> ());
  (* ...but the damage is already in the shared object. *)
  Alcotest.(check string) "read-only data modified" "HACKED" (read sys vm ~vpn 6)

let test_uvm_has_no_window () =
  let sys = Uvm.Sys.boot () in
  let vm = Uvm.Sys.new_vmspace sys in
  let vfs = (Uvm.Sys.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/safe" ~size:4096 in
  (* UVM's single-step mapping: at no point is a read-only mapping
     writable.  There is no probe hook because there are no steps to hook
     between; writing after mmap must fail. *)
  let vpn =
    Uvm.Sys.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared
      (Vt.File (vn, 0))
  in
  try
    Uvm.Sys.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "nope");
    Alcotest.fail "write must be denied"
  with Vt.Segv { error = Vt.Prot_denied; _ } -> ()

let test_vslock_fragments_bsd () =
  let sys, vm = mk () in
  let vpn = B.mmap sys vm ~npages:8 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let entries0 = B.map_entry_count vm in
  let wb = B.vslock sys vm ~vpn:(vpn + 3) ~npages:2 in
  Alcotest.(check int) "wiring fragments the map" (entries0 + 2) (B.map_entry_count vm);
  B.vsunlock sys vm wb;
  (* Fragmentation persists after unwiring (paper §3.2). *)
  Alcotest.(check int) "fragmentation persists" (entries0 + 2) (B.map_entry_count vm)

let test_no_fault_ahead () =
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/nfa" ~size:(16 * 4096) in
  let vpn = B.mmap sys vm ~npages:16 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  B.access_range sys vm ~vpn ~npages:16 Vt.Read;
  (* Every page is its own fault under BSD. *)
  Alcotest.(check int) "16 faults for 16 pages" 16
    Sim.Stats.(get (stats sys) faults)

let test_bsd_paging_roundtrip () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 128; swap_pages = 2048 }
  in
  let sys = B.boot ~config () in
  let vm = B.new_vmspace sys in
  let n = 300 in
  let vpn = B.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  for i = 0 to n - 1 do
    B.write_bytes sys vm ~addr:((vpn + i) * 4096)
      (Bytes.of_string (Printf.sprintf "b%04d" i))
  done;
  for i = 0 to n - 1 do
    let got = B.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:5 in
    Alcotest.(check bytes) (Printf.sprintf "page %d" i)
      (Bytes.of_string (Printf.sprintf "b%04d" i)) got
  done;
  (* One write op per page: no clustering. *)
  let st = stats sys in
  Alcotest.(check bool) "unclustered writes" true
    (Sim.Stats.(get st disk_write_ops) >= Sim.Stats.(get st pageouts));
  B.destroy_vmspace sys vm;
  Alcotest.(check int) "swap released" 0 (B.swap_slots_in_use sys)

let test_private_read_allocates_shadow () =
  (* Table 3's note: BSD allocates a shadow object even for read faults on
     private mappings. *)
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/rp" ~size:4096 in
  let shadows0 = Sim.Stats.(get (stats sys) shadow_objects_allocated) in
  let vpn = B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Private (Vt.File (vn, 0)) in
  B.touch sys vm ~vpn Vt.Read;
  Alcotest.(check int) "shadow allocated on read" (shadows0 + 1)
    Sim.Stats.(get (stats sys) shadow_objects_allocated)

let test_pager_structs_allocated () =
  let sys, vm = mk () in
  let vfs = (B.machine sys).Vmiface.Machine.vfs in
  let vn = Vfs.create_file vfs ~name:"/pg" ~size:4096 in
  let pagers0 = Sim.Stats.(get (stats sys) pager_structs_allocated) in
  ignore (B.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)));
  (* vm_pager + vn_pager (Figure 4). *)
  Alcotest.(check int) "two pager structs" (pagers0 + 2)
    Sim.Stats.(get (stats sys) pager_structs_allocated);
  (* UVM allocates none for the same operation. *)
  let usys = Uvm.Sys.boot () in
  let uvm = Uvm.Sys.new_vmspace usys in
  let uvfs = (Uvm.Sys.machine usys).Vmiface.Machine.vfs in
  let uvn = Vfs.create_file uvfs ~name:"/pg" ~size:4096 in
  ignore
    (Uvm.Sys.mmap usys uvm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared
       (Vt.File (uvn, 0)));
  Alcotest.(check int) "uvm: zero pager structs" 0
    Sim.Stats.(
      get (Uvm.Sys.machine usys).Vmiface.Machine.stats pager_structs_allocated)

let () =
  Alcotest.run "bsdvm"
    [
      ( "correctness",
        [
          Alcotest.test_case "cow" `Quick test_basic_cow;
          Alcotest.test_case "paging roundtrip" `Quick test_bsd_paging_roundtrip;
        ] );
      ( "chains",
        [
          Alcotest.test_case "shadow chain grows" `Quick test_shadow_chain_grows;
          Alcotest.test_case "swap leak" `Quick test_swap_leak_scenario;
          Alcotest.test_case "collapse repairs" `Quick test_collapse_repairs_on_write;
          Alcotest.test_case "shadow on private read" `Quick test_private_read_allocates_shadow;
        ] );
      ( "object cache",
        [
          Alcotest.test_case "100 limit" `Quick test_object_cache_limit;
          Alcotest.test_case "pins vnodes" `Quick test_cache_pins_vnodes;
          Alcotest.test_case "pager structs" `Quick test_pager_structs_allocated;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "two-step window" `Quick test_two_step_window;
          Alcotest.test_case "uvm has no window" `Quick test_uvm_has_no_window;
          Alcotest.test_case "vslock fragments" `Quick test_vslock_fragments_bsd;
          Alcotest.test_case "no fault-ahead" `Quick test_no_fault_ahead;
        ] );
    ]
