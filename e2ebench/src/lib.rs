//! End-to-end benchmark of the obfuscating gateway chain.
//!
//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload through clear client → encode gateway → decode gateway →
//! server and back over loopback TCP, verifies every reply, and prints a
//! report followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

pub mod chain;
pub mod client;
pub mod inmem;
pub mod layers;
pub mod probe;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workload;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 8] = [
    def("setup_s", "s"),
    def("msgs_per_s", "1/s"),
    def("goodput_mib_s", "MiB/s"),
    def("rtt_p50_us", "us"),
    def("cpu_us_per_msg", "us"),
    def("peak_rss_mib", "MiB"),
    def("wire_ratio", "ratio"),
    def("pre_resilience", "score"),
];

/// Metrics of the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 41] = [
    def("spec.resolve_us", "us"),
    def("obf.obfuscate_us", "us"),
    def("obf.transforms", "count"),
    def("plan.compile_us", "us"),
    def("plan.copyprog_us", "us"),
    def("plan.slots", "count"),
    def("service.build_us", "us"),
    def("protocols.build_us", "us"),
    def("protocols.build_allocs", "count"),
    def("serialize.us", "us"),
    def("serialize.allocs", "count"),
    def("parse.us", "us"),
    def("parse.allocs", "count"),
    def("transcode.us", "us"),
    def("transcode.allocs", "count"),
    def("framing.us", "us"),
    def("sample.us", "us"),
    def("sample.allocs", "count"),
    def("wire.clear_bytes", "bytes"),
    def("wire.obf_bytes", "bytes"),
    def("gateway.enc_drive_us", "us"),
    def("gateway.dec_drive_us", "us"),
    def("gateway.server_drive_us", "us"),
    def("gateway.drives", "count"),
    def("gateway.idle_drive_ratio", "ratio"),
    def("evloop.wakes", "count"),
    def("evloop.outside_drive_us", "us"),
    def("kernel.ctx_switches", "count"),
    def("conn.setup_us", "us"),
    def("client.write_us", "us"),
    def("client.wait_us", "us"),
    def("rss.after_setup_mib", "MiB"),
    def("pre.score", "score"),
    def("pre.ari", "score"),
    def("pre.static_fraction", "ratio"),
    def("pre.random_fraction", "ratio"),
    def("trace.rtt_p50_us", "us"),
    def("trace.unattributed_us", "us"),
    def("trace.msgs_per_s", "1/s"),
    def("trace.untraced_msgs_per_s", "1/s"),
    def("trace.overhead_ratio", "ratio"),
];
