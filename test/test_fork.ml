(* Fork and inheritance: the paper's Figure 3 flows, minherit corner
   cases, deep fork chains, and leak-freedom. *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 1024; swap_pages = 2048 }
  in
  let sys = S.boot ~config () in
  (sys, S.new_vmspace sys)

let stats sys = (S.machine sys).Vmiface.Machine.stats
let write sys vm ~vpn s = S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string s)
let read sys vm ~vpn n = Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:n)

let test_cow_isolation () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "parent0";
  write sys p ~vpn:(z + 1) "parent1";
  let c = S.fork sys p in
  Alcotest.(check string) "child inherits" "parent0" (read sys c ~vpn:z 7);
  write sys c ~vpn:z "child00";
  Alcotest.(check string) "child sees own" "child00" (read sys c ~vpn:z 7);
  Alcotest.(check string) "parent unchanged" "parent0" (read sys p ~vpn:z 7);
  write sys p ~vpn:(z + 1) "PARENT1";
  Alcotest.(check string) "child keeps snapshot" "parent1" (read sys c ~vpn:(z + 1) 7);
  S.destroy_vmspace sys c;
  S.destroy_vmspace sys p;
  Alcotest.(check int) "no leak" 0 (S.leaked_pages sys)

let test_needs_copy_cleared_without_copy_when_sole () =
  (* Paper Figure 3, third column: the child holds the only reference to
     the original amap, so clearing needs-copy allocates nothing. *)
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:(z + 1) "data";
  let c = S.fork sys p in
  (* Parent resolves its needs-copy first. *)
  write sys p ~vpn:(z + 1) "DATA";
  let amaps0 = Sim.Stats.(get (stats sys) amaps_allocated) in
  (* Child writes the right-hand page: needs-copy clears in place, only a
     fresh anon is allocated for the new page. *)
  write sys c ~vpn:(z + 2) "kid!";
  Alcotest.(check int) "no amap allocated for child" amaps0
    Sim.Stats.(get (stats sys) amaps_allocated);
  Alcotest.(check string) "parent right page intact" "\000\000\000\000"
    (read sys p ~vpn:(z + 2) 4)

let test_write_in_place_when_sole_reference () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "first";
  let c = S.fork sys p in
  S.destroy_vmspace sys c;
  (* Child gone: anon refs back to 1, write goes in place (no copy). *)
  let copies0 = Sim.Stats.(get (stats sys) pages_copied) in
  let reuse0 = Sim.Stats.(get (stats sys) cow_reuses) in
  write sys p ~vpn:z "again";
  Alcotest.(check int) "no page copied" copies0
    Sim.Stats.(get (stats sys) pages_copied);
  Alcotest.(check bool) "in-place reuse counted" true
    (Sim.Stats.(get (stats sys) cow_reuses) > reuse0)

let test_inherit_none () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "secret";
  S.minherit sys p ~vpn:z ~npages:2 Vt.Inh_none;
  let c = S.fork sys p in
  (try
     S.touch sys c ~vpn:z Vt.Read;
     Alcotest.fail "child should have nothing there"
   with Vt.Segv { error = Vt.No_entry; _ } -> ());
  S.destroy_vmspace sys c

let test_inherit_shared () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "before";
  S.minherit sys p ~vpn:z ~npages:2 Vt.Inh_shared;
  let c = S.fork sys p in
  write sys c ~vpn:z "child!";
  Alcotest.(check string) "parent sees child write" "child!" (read sys p ~vpn:z 6);
  write sys p ~vpn:(z + 1) "both";
  Alcotest.(check string) "child sees parent write" "both" (read sys c ~vpn:(z + 1) 4);
  S.destroy_vmspace sys c;
  S.destroy_vmspace sys p

let test_cow_copy_of_shared_amap () =
  (* §5.4: a child receiving a copy-on-write copy of a mapping whose amap
     is shared (amap_cow_now).  The sharers' later in-place writes must
     not leak into the snapshot. *)
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "v1";
  S.minherit sys p ~vpn:z ~npages:1 Vt.Inh_shared;
  let sharer = S.fork sys p in
  (* Now flip to copy inheritance and fork a snapshot child. *)
  S.minherit sys p ~vpn:z ~npages:1 Vt.Inh_copy;
  let snap = S.fork sys p in
  write sys p ~vpn:z "v2";
  Alcotest.(check string) "sharer sees v2" "v2" (read sys sharer ~vpn:z 2);
  Alcotest.(check string) "snapshot keeps v1" "v1" (read sys snap ~vpn:z 2);
  write sys snap ~vpn:z "v3";
  Alcotest.(check string) "parent unaffected by snapshot" "v2" (read sys p ~vpn:z 2);
  List.iter (fun vm -> S.destroy_vmspace sys vm) [ sharer; snap; p ];
  Alcotest.(check int) "no leak" 0 (S.leaked_pages sys)

let test_deep_fork_chain () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "gen-0";
  let rec go parent n acc =
    if n = 0 then acc
    else begin
      let child = S.fork sys parent in
      write sys child ~vpn:z (Printf.sprintf "gen-%d" (6 - n));
      go child (n - 1) (child :: acc)
    end
  in
  let descendants = go p 5 [] in
  Alcotest.(check string) "ancestor untouched" "gen-0" (read sys p ~vpn:z 5);
  List.iteri
    (fun i vm ->
      Alcotest.(check string) "each generation distinct"
        (Printf.sprintf "gen-%d" (5 - i))
        (read sys vm ~vpn:z 5))
    descendants;
  List.iter (fun vm -> S.destroy_vmspace sys vm) (p :: descendants);
  Alcotest.(check int) "no leak" 0 (S.leaked_pages sys);
  Alcotest.(check int) "no swap held" 0 (S.swap_slots_in_use sys)

let test_fork_write_protects_parent () =
  let sys, p = mk () in
  let z = S.mmap sys p ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys p ~vpn:z "x";
  let faults0 = Sim.Stats.(get (stats sys) faults) in
  let c = S.fork sys p in
  (* Parent's pte must have lost write permission. *)
  (match Pmap.lookup p.S.pmap ~vpn:z with
  | Some pte -> Alcotest.(check bool) "write-protected" false pte.Pmap.prot.Pmap.Prot.w
  | None -> Alcotest.fail "parent lost mapping");
  write sys p ~vpn:z "y";
  Alcotest.(check bool) "parent write faulted" true
    (Sim.Stats.(get (stats sys) faults) > faults0);
  Alcotest.(check string) "child snapshot intact" "x" (read sys c ~vpn:z 1)

let test_fork_private_file_mapping () =
  let sys, p = mk () in
  let vn = Vfs.create_file (S.machine sys).Vmiface.Machine.vfs ~name:"/ff" ~size:8192 in
  let m = S.mmap sys p ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
  write sys p ~vpn:m "AA";
  let c = S.fork sys p in
  write sys c ~vpn:m "BB";
  write sys c ~vpn:(m + 1) "CC";
  Alcotest.(check string) "parent page" "AA" (read sys p ~vpn:m 2);
  Alcotest.(check string) "child page" "BB" (read sys c ~vpn:m 2);
  (* Page 1 was never written by the parent: it still comes from the
     file for the parent, but the child has its own copy. *)
  let want = String.init 2 (fun i -> Vfs.file_byte ~name:"/ff" ~off:(4096 + i)) in
  Alcotest.(check string) "parent from file" want (read sys p ~vpn:(m + 1) 2);
  Alcotest.(check string) "child own copy" "CC" (read sys c ~vpn:(m + 1) 2)

(* Property: arbitrary fork trees with random writes keep every process's
   view equal to a pure oracle, and tear down without leaks. *)
let prop_fork_oracle =
  QCheck.Test.make ~name:"fork tree matches oracle" ~count:30
    QCheck.(pair small_int (list (triple (int_range 0 5) (int_range 0 7) small_int)))
    (fun (seed, ops) ->
      let sys, root = mk () in
      let npages = 8 in
      let z = S.mmap sys root ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
      ignore seed;
      (* Oracle: per live process, expected first byte of each page. *)
      let procs = ref [ (root, Array.make npages '\000') ] in
      List.iter
        (fun (op, page, v) ->
          let idx = op mod List.length !procs in
          let vm, model = List.nth !procs idx in
          match op with
          | 0 | 1 | 2 ->
              let ch = Char.chr (32 + (v mod 95)) in
              S.write_bytes sys vm ~addr:((z + page) * 4096) (Bytes.make 1 ch);
              model.(page) <- ch
          | 3 | 4 ->
              if List.length !procs < 6 then
                procs := (S.fork sys vm, Array.copy model) :: !procs
          | _ ->
              if List.length !procs > 1 then begin
                S.destroy_vmspace sys vm;
                procs := List.filteri (fun i _ -> i <> idx) !procs
              end)
        ops;
      let ok =
        List.for_all
          (fun (vm, model) ->
            Array.to_list model
            |> List.mapi (fun i expected ->
                   Bytes.get (S.read_bytes sys vm ~addr:((z + i) * 4096) ~len:1) 0
                   = expected)
            |> List.for_all Fun.id)
          !procs
      in
      List.iter (fun (vm, _) -> S.destroy_vmspace sys vm) !procs;
      ok && S.leaked_pages sys = 0)

let () =
  Alcotest.run "fork"
    [
      ( "cow",
        [
          Alcotest.test_case "isolation" `Quick test_cow_isolation;
          Alcotest.test_case "needs-copy sole ref" `Quick test_needs_copy_cleared_without_copy_when_sole;
          Alcotest.test_case "in-place write" `Quick test_write_in_place_when_sole_reference;
          Alcotest.test_case "parent write-protected" `Quick test_fork_write_protects_parent;
          Alcotest.test_case "private file mapping" `Quick test_fork_private_file_mapping;
        ] );
      ( "inheritance",
        [
          Alcotest.test_case "none" `Quick test_inherit_none;
          Alcotest.test_case "shared" `Quick test_inherit_shared;
          Alcotest.test_case "copy of shared amap" `Quick test_cow_copy_of_shared_amap;
        ] );
      ( "chains",
        [
          Alcotest.test_case "deep fork chain" `Quick test_deep_fork_chain;
          QCheck_alcotest.to_alcotest prop_fork_oracle;
        ] );
    ]
