type mm = Mm_asvm | Mm_xmm

type t = {
  nodes : int;
  mm : mm;
  vm : Asvm_machvm.Vm_config.t;
  net : Asvm_mesh.Network.config;
  asvm : Asvm_core.Asvm.config;
  norma : Asvm_norma.Ipc.config;
  disk : Asvm_pager.Disk.config;
  pager : Asvm_pager.Store_pager.config;
  io_node : int;
  fork_threads : int;
  barrier_ms : float;
  trace_capacity : int option;
  trace_out : string option;
  net_interposer : Asvm_mesh.Network.interposer option;
}

let default ~nodes =
  {
    nodes;
    mm = Mm_asvm;
    vm = Asvm_machvm.Vm_config.default;
    net = Asvm_mesh.Network.paragon_config;
    asvm = Asvm_core.Asvm.default_config;
    norma = Asvm_norma.Ipc.default_config;
    disk = Asvm_pager.Disk.default_config;
    pager = Asvm_pager.Store_pager.default_config;
    io_node = 0;
    fork_threads = 16;
    barrier_ms = 0.4;
    trace_capacity = None;
    trace_out = None;
    net_interposer = None;
  }

let with_mm t mm = { t with mm }

let with_memory_pages t pages =
  { t with vm = Asvm_machvm.Vm_config.with_memory t.vm pages }

let mm_name = function Mm_asvm -> "ASVM" | Mm_xmm -> "XMM"
