(* The device pager (paper §6's ROM example) and process swapping
   (§3.2's user-structure wiring case). *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk () =
  let sys = S.boot () in
  (sys, S.new_vmspace sys)

let stats sys = (S.machine sys).Vmiface.Machine.stats

let rom_bytes =
  let b = Bytes.create (3 * 4096) in
  Bytes.fill b 0 (Bytes.length b) '\xAA';
  Bytes.blit_string "BOOTROM-V1" 0 b 0 10;
  Bytes.blit_string "VECTORS" 0 b 4096 7;
  b

let test_rom_mapping () =
  let sys, vm = mk () in
  let dev = Uvm.Device.create_rom sys.S.usys ~name:"rom0" ~contents:rom_bytes in
  Alcotest.(check int) "rom pages" 3 (Uvm.Device.npages dev);
  let obj = Uvm.Device.attach sys.S.usys dev in
  let ops0 = Sim.Stats.(get (stats sys) disk_read_ops) in
  let vpn = Uvm.map_object sys vm ~obj ~npages:3 ~prot:Pmap.Prot.rx ~share:Vt.Shared in
  Alcotest.(check string) "rom contents" "BOOTROM-V1"
    (Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:10));
  Alcotest.(check string) "second page" "VECTORS"
    (Bytes.to_string (S.read_bytes sys vm ~addr:((vpn + 1) * 4096) ~len:7));
  Alcotest.(check int) "no disk I/O ever" ops0
    Sim.Stats.(get (stats sys) disk_read_ops);
  (* The process maps the device's own frame — code straight from the
     ROM, no copies. *)
  let pte = Option.get (Pmap.lookup vm.S.pmap ~vpn) in
  Alcotest.(check int) "maps the rom frame itself"
    dev.Uvm.Device.frames.(0).Physmem.Page.id pte.Pmap.page.Physmem.Page.id

let test_rom_shared_between_processes () =
  let sys, vm1 = mk () in
  let vm2 = S.new_vmspace sys in
  let dev = Uvm.Device.create_rom sys.S.usys ~name:"rom1" ~contents:rom_bytes in
  let obj = Uvm.Device.attach sys.S.usys dev in
  obj.Uvm.Object.refs <- obj.Uvm.Object.refs + 1 (* second mapping's ref *);
  let a = Uvm.map_object sys vm1 ~obj ~npages:3 ~prot:Pmap.Prot.rx ~share:Vt.Shared in
  let b = Uvm.map_object sys vm2 ~obj ~npages:3 ~prot:Pmap.Prot.rx ~share:Vt.Shared in
  S.touch sys vm1 ~vpn:a Vt.Read;
  S.touch sys vm2 ~vpn:b Vt.Read;
  let f1 = (Option.get (Pmap.lookup vm1.S.pmap ~vpn:a)).Pmap.page in
  let f2 = (Option.get (Pmap.lookup vm2.S.pmap ~vpn:b)).Pmap.page in
  Alcotest.(check int) "same physical frame" f1.Physmem.Page.id f2.Physmem.Page.id;
  (* Unmapping everywhere leaves the device frames intact (wired, owned by
     the device, never freed to the page pool). *)
  S.destroy_vmspace sys vm1;
  S.destroy_vmspace sys vm2;
  Alcotest.(check string) "rom survives unmaps" "BOOTROM-V1"
    (Bytes.to_string (Bytes.sub dev.Uvm.Device.frames.(0).Physmem.Page.data 0 10))

let test_rom_private_cow () =
  (* A private mapping of the ROM: writes are promoted to anonymous memory;
     the ROM itself is never modified. *)
  let sys, vm = mk () in
  let dev = Uvm.Device.create_rom sys.S.usys ~name:"rom2" ~contents:rom_bytes in
  let obj = Uvm.Device.attach sys.S.usys dev in
  let vpn = Uvm.map_object sys vm ~obj ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "PATCHED!");
  Alcotest.(check string) "patched view" "PATCHED!"
    (Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:8));
  Alcotest.(check string) "rom pristine" "BOOTROM-V1"
    (Bytes.to_string (Bytes.sub dev.Uvm.Device.frames.(0).Physmem.Page.data 0 10))

module Swapping (V : Vmiface.Vm_sig.VM_SYS) = struct
  module P = Oslayer.Procsim.Make (V)

  let test () =
    let sys = V.boot () in
    P.boot_kernel sys;
    let proc = P.spawn sys Oslayer.Programs.cat in
    let kernel = V.kernel_vmspace sys in
    let wired_frames vm =
      (* Count wired translations in the kernel pmap range of this proc's
         ustruct by probing the pages. *)
      ignore vm;
      0
    in
    ignore wired_frames;
    (* Swap the process out: its user structure becomes pageable. *)
    P.swapout_proc sys proc;
    let entries_swapped = V.map_entry_count kernel in
    P.swapin_proc sys proc;
    let entries_back = V.map_entry_count kernel in
    Alcotest.(check int) "kernel map stable across swap cycle" entries_swapped
      entries_back;
    P.exit_proc sys proc
end

module SU = Swapping (Uvm.Sys)
module SB = Swapping (Bsdvm.Sys)

let test_swap_lock_traffic () =
  (* BSD's swapout/swapin goes through the kernel map (lock + lookup);
     UVM's does not touch it at all. *)
  let traffic (module V : Vmiface.Vm_sig.VM_SYS) =
    let module P = Oslayer.Procsim.Make (V) in
    let sys = V.boot () in
    P.boot_kernel sys;
    let proc = P.spawn sys Oslayer.Programs.cat in
    let st = (V.machine sys).Vmiface.Machine.stats in
    let locks0 = Sim.Stats.(get st lock_acquisitions) in
    for _ = 1 to 10 do
      P.swapout_proc sys proc;
      P.swapin_proc sys proc
    done;
    Sim.Stats.(get st lock_acquisitions) - locks0
  in
  let uvm = traffic (module Uvm.Sys) in
  let bsd = traffic (module Bsdvm.Sys) in
  (* Both re-wire through the fault path, but BSD additionally relocks the
     kernel map to record the wired attribute on every transition. *)
  Alcotest.(check bool) "bsd pays extra map locking" true (bsd >= uvm + 20)

let () =
  Alcotest.run "device"
    [
      ( "rom pager",
        [
          Alcotest.test_case "mapping" `Quick test_rom_mapping;
          Alcotest.test_case "shared frames" `Quick test_rom_shared_between_processes;
          Alcotest.test_case "private cow" `Quick test_rom_private_cow;
        ] );
      ( "process swapping",
        [
          Alcotest.test_case "uvm cycle" `Quick SU.test;
          Alcotest.test_case "bsd cycle" `Quick SB.test;
          Alcotest.test_case "lock traffic" `Quick test_swap_lock_traffic;
        ] );
    ]
