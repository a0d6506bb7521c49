//! Trace exporters: Chrome Trace Event JSON, JSONL, and CSV.
//!
//! Every event has one field list, [`Event::to_json`]: the JSONL form
//! dumps it, one object per line, and the CSV form spreads it over the
//! fixed [`CSV_HEADER`] columns for spreadsheet work. The Chrome form,
//! which targets `chrome://tracing` and `ui.perfetto.dev`, shapes its own
//! rows. JSON text, and every number a CSV cell holds, is written by
//! [`crate::json`].

use std::collections::HashMap;

use crate::event::Event;
use crate::json::Json;

const US: f64 = 1e6; // Chrome trace timestamps are microseconds.

/// A JSON number from any field that converts to `f64` without loss.
fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

impl Event {
    /// The event as one flat JSON object, `tag` first: the field list the
    /// JSONL and CSV exporters share.
    pub fn to_json(&self) -> Json {
        let fields = match self {
            Event::ConfigSnapshot {
                t,
                core_mhz,
                mem_mhz,
                ecc,
            } => vec![
                ("t", num(*t)),
                ("core_mhz", num(*core_mhz)),
                ("mem_mhz", num(*mem_mhz)),
                ("ecc", Json::Bool(*ecc)),
            ],
            Event::KernelLaunch {
                t,
                launch,
                name,
                grid,
                block_threads,
            } => vec![
                ("t", num(*t)),
                ("launch", num(*launch)),
                ("name", Json::str(name)),
                ("grid", num(*grid)),
                ("block_threads", num(*block_threads)),
            ],
            Event::KernelRetire {
                t,
                launch,
                duration_s,
                energy_j,
            } => vec![
                ("t", num(*t)),
                ("launch", num(*launch)),
                ("duration_s", num(*duration_s)),
                ("energy_j", num(*energy_j)),
            ],
            Event::BlockDispatch {
                t,
                launch,
                block,
                sm,
                slot,
            } => vec![
                ("t", num(*t)),
                ("launch", num(*launch)),
                ("block", num(*block)),
                ("sm", num(*sm)),
                ("slot", num(*slot)),
            ],
            Event::BlockComplete {
                t,
                launch,
                block,
                sm,
            } => vec![
                ("t", num(*t)),
                ("launch", num(*launch)),
                ("block", num(*block)),
                ("sm", num(*sm)),
            ],
            Event::SmInterval {
                t0,
                t1,
                sm,
                watts,
                issue_frac,
                resident,
            } => vec![
                ("t0", num(*t0)),
                ("t1", num(*t1)),
                ("sm", num(*sm)),
                ("watts", num(*watts)),
                ("issue_frac", num(*issue_frac)),
                ("resident", num(*resident)),
            ],
            Event::BoardInterval {
                t0,
                t1,
                watts,
                phase,
            } => vec![
                ("t0", num(*t0)),
                ("t1", num(*t1)),
                ("watts", num(*watts)),
                ("phase", Json::str(phase.name())),
            ],
            Event::DramInterval {
                t0,
                t1,
                bytes_per_s,
                demanders,
            } => vec![
                ("t0", num(*t0)),
                ("t1", num(*t1)),
                ("bytes_per_s", num(*bytes_per_s)),
                ("demanders", num(*demanders)),
            ],
            Event::DramContentionOpen { t, demanders } => {
                vec![("t", num(*t)), ("demanders", num(*demanders))]
            }
            Event::DramContentionClose { t } => vec![("t", num(*t))],
            Event::SensorSample { t, watts, rate_hz } => vec![
                ("t", num(*t)),
                ("watts", num(*watts)),
                ("rate_hz", num(*rate_hz)),
            ],
            Event::SensorRateSwitch { t, rate_hz } => {
                vec![("t", num(*t)), ("rate_hz", num(*rate_hz))]
            }
            Event::ThresholdCross {
                t,
                watts,
                threshold_w,
                rising,
            } => vec![
                ("t", num(*t)),
                ("watts", num(*watts)),
                ("threshold_w", num(*threshold_w)),
                ("rising", Json::Bool(*rising)),
            ],
            Event::Finding {
                t,
                checker,
                severity,
                kernel,
                message,
            } => vec![
                ("t", num(*t)),
                ("checker", Json::str(checker)),
                ("severity", Json::str(severity)),
                ("kernel", Json::str(kernel)),
                ("message", Json::str(message)),
            ],
            Event::CacheLookup { t, key, hit, disk } => vec![
                ("t", num(*t)),
                ("key", Json::str(key)),
                ("hit", Json::Bool(*hit)),
                ("disk", Json::Bool(*disk)),
            ],
            Event::CampaignProgress { t, done, total } => {
                vec![("t", num(*t)), ("done", num(*done)), ("total", num(*total))]
            }
            Event::ClassEnergy { t, class, energy_j } => vec![
                ("t", num(*t)),
                ("class", Json::str(class)),
                ("energy_j", num(*energy_j)),
            ],
        };
        Json::obj(std::iter::once(("tag", Json::str(self.tag()))).chain(fields))
    }
}

// Each Chrome row is dumped as soon as it is built, so a long trace
// holds its rows as text, not as `Json` trees.

/// A Chrome metadata row naming process or thread `tid`.
fn metadata(tid: impl Into<f64>, what: &str, name: impl Into<String>) -> String {
    Json::obj([
        ("ph", Json::str("M")),
        ("pid", num(0)),
        ("tid", num(tid)),
        ("name", Json::str(what)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
    .dump()
}

/// A global instant row at `t` seconds on the kernel thread.
fn instant(t: f64, name: impl Into<String>, args: Json) -> String {
    Json::obj([
        ("ph", Json::str("i")),
        ("s", Json::str("g")),
        ("pid", num(0)),
        ("tid", num(0)),
        ("ts", num(t * US)),
        ("name", Json::str(name)),
        ("args", args),
    ])
    .dump()
}

/// A counter row at `t` seconds.
fn counter(t: f64, name: impl Into<String>, args: Json) -> String {
    Json::obj([
        ("ph", Json::str("C")),
        ("pid", num(0)),
        ("tid", num(0)),
        ("ts", num(t * US)),
        ("name", Json::str(name)),
        ("args", args),
    ])
    .dump()
}

/// A complete slice on thread `tid` from `t0` lasting `dur` seconds.
fn slice(tid: impl Into<f64>, t0: f64, dur: f64, name: impl Into<String>, args: Json) -> String {
    Json::obj([
        ("ph", Json::str("X")),
        ("pid", num(0)),
        ("tid", num(tid)),
        ("ts", num(t0 * US)),
        ("dur", num(dur * US)),
        ("name", Json::str(name)),
        ("args", args),
    ])
    .dump()
}

/// Render an event stream as a Chrome Trace Event JSON document.
///
/// Layout: one process (`pid` 0). Thread 0 carries the kernel timeline
/// (`X` complete events spanning launch→retire); thread `sm + 1` carries
/// that SM's block-residency slices. Power, occupancy, issue utilization
/// and DRAM bandwidth appear as `C` counter tracks; contention open/close,
/// threshold crossings, sensor-rate switches and the configuration
/// snapshot appear as instant (`i`) events.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut rows: Vec<String> = Vec::with_capacity(events.len() + 8);
    rows.push(metadata(0, "process_name", "kepler-sim"));
    rows.push(metadata(0, "thread_name", "kernels"));

    // Kernel names by launch id, so retire events can label their slice.
    let mut knames: HashMap<u32, String> = HashMap::new();
    // Open block slices keyed by (launch, block) -> (t0, sm).
    let mut open_blocks: HashMap<(u32, u32), (f64, u16)> = HashMap::new();
    let mut named_sms: Vec<u16> = Vec::new();

    for ev in events {
        match ev {
            Event::ConfigSnapshot {
                t,
                core_mhz,
                mem_mhz,
                ecc,
            } => rows.push(instant(
                *t,
                "config",
                Json::obj([
                    ("core_mhz", num(*core_mhz)),
                    ("mem_mhz", num(*mem_mhz)),
                    ("ecc", Json::Bool(*ecc)),
                ]),
            )),
            Event::KernelLaunch { launch, name, .. } => {
                knames.insert(*launch, name.clone());
            }
            Event::KernelRetire {
                t,
                launch,
                duration_s,
                energy_j,
            } => {
                let name = knames
                    .get(launch)
                    .cloned()
                    .unwrap_or_else(|| format!("launch {launch}"));
                rows.push(slice(
                    0,
                    t - duration_s,
                    *duration_s,
                    name,
                    Json::obj([("launch", num(*launch)), ("energy_j", num(*energy_j))]),
                ));
            }
            Event::BlockDispatch {
                t,
                launch,
                block,
                sm,
                ..
            } => {
                open_blocks.insert((*launch, *block), (*t, *sm));
                if !named_sms.contains(sm) {
                    named_sms.push(*sm);
                    rows.push(metadata(
                        f64::from(*sm) + 1.0,
                        "thread_name",
                        format!("SM {sm}"),
                    ));
                }
            }
            Event::BlockComplete {
                t,
                launch,
                block,
                sm,
            } => {
                let (t0, _) = open_blocks.remove(&(*launch, *block)).unwrap_or((*t, *sm));
                rows.push(slice(
                    f64::from(*sm) + 1.0,
                    t0,
                    t - t0,
                    format!("block {block}"),
                    Json::obj([("launch", num(*launch))]),
                ));
            }
            Event::SmInterval {
                t0,
                sm,
                watts,
                issue_frac,
                resident,
                ..
            } => {
                rows.push(counter(
                    *t0,
                    format!("SM {sm} power (W)"),
                    Json::obj([("watts", num(*watts))]),
                ));
                rows.push(counter(
                    *t0,
                    format!("SM {sm} occupancy"),
                    Json::obj([
                        ("resident", num(*resident)),
                        ("issue_frac", num(*issue_frac)),
                    ]),
                ));
            }
            Event::BoardInterval {
                t0, watts, phase, ..
            } => rows.push(counter(
                *t0,
                "board power (W)",
                Json::obj([("watts", num(*watts)), ("phase", Json::str(phase.name()))]),
            )),
            Event::DramInterval {
                t0,
                bytes_per_s,
                demanders,
                ..
            } => rows.push(counter(
                *t0,
                "DRAM bandwidth (GB/s)",
                Json::obj([
                    ("gbps", num(bytes_per_s / 1e9)),
                    ("demanders", num(*demanders)),
                ]),
            )),
            Event::DramContentionOpen { t, demanders } => rows.push(instant(
                *t,
                "dram contention open",
                Json::obj([("demanders", num(*demanders))]),
            )),
            Event::DramContentionClose { t } => {
                rows.push(instant(*t, "dram contention close", Json::Obj(Vec::new())))
            }
            Event::SensorSample { t, watts, rate_hz } => rows.push(counter(
                *t,
                "sensor (W)",
                Json::obj([("watts", num(*watts)), ("rate_hz", num(*rate_hz))]),
            )),
            Event::SensorRateSwitch { t, rate_hz } => rows.push(instant(
                *t,
                "sensor rate switch",
                Json::obj([("rate_hz", num(*rate_hz))]),
            )),
            Event::ThresholdCross {
                t,
                watts,
                threshold_w,
                rising,
            } => rows.push(instant(
                *t,
                if *rising {
                    "threshold rise"
                } else {
                    "threshold fall"
                },
                Json::obj([("watts", num(*watts)), ("threshold_w", num(*threshold_w))]),
            )),
            Event::Finding {
                t,
                checker,
                severity,
                kernel,
                message,
            } => rows.push(instant(
                *t,
                format!("finding: {checker}"),
                Json::obj([
                    ("severity", Json::str(severity)),
                    ("kernel", Json::str(kernel)),
                    ("message", Json::str(message)),
                ]),
            )),
            Event::CacheLookup { t, key, hit, disk } => rows.push(instant(
                *t,
                if *hit { "cache hit" } else { "cache miss" },
                Json::obj([("key", Json::str(key)), ("disk", Json::Bool(*disk))]),
            )),
            Event::CampaignProgress { t, done, total } => rows.push(counter(
                *t,
                "campaign progress",
                Json::obj([("done", num(*done)), ("total", num(*total))]),
            )),
            Event::ClassEnergy { t, class, energy_j } => rows.push(instant(
                *t,
                format!("class energy: {class}"),
                Json::obj([("energy_j", num(*energy_j))]),
            )),
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        rows.join(",\n")
    )
}

/// Render an event stream as JSONL: each event's [`Event::to_json`], one
/// per line.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json().dump());
        out.push('\n');
    }
    out
}

/// Fixed CSV column superset shared by every event kind.
pub const CSV_HEADER: &str =
    "tag,t,t1,launch,name,grid,block_threads,block,sm,slot,watts,issue_frac,resident,\
bytes_per_s,demanders,duration_s,energy_j,rate_hz,threshold_w,rising,phase,core_mhz,mem_mhz,ecc,\
checker,severity,message,key,hit,disk,done,total,class";

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render an event stream as CSV with the [`CSV_HEADER`] columns, filled
/// from [`Event::to_json`] by key; cells that do not apply to an event
/// kind are left empty.
pub fn csv(events: &[Event]) -> String {
    let columns: Vec<&str> = CSV_HEADER.split(',').collect();
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for ev in events {
        let mut cells = vec![String::new(); columns.len()];
        if let Json::Obj(fields) = ev.to_json() {
            for (key, value) in fields {
                // Intervals start in the `t` column; a finding's kernel
                // shares the `name` column with a launch's.
                let column = match key.as_str() {
                    "t0" => "t",
                    "kernel" => "name",
                    key => key,
                };
                let i = columns
                    .iter()
                    .position(|c| *c == column)
                    .expect("every event field has a CSV column");
                cells[i] = match value {
                    Json::Str(s) => csv_field(&s),
                    value => value.dump(),
                };
            }
        }
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BoardPhase;
    use crate::json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ConfigSnapshot {
                t: 0.0,
                core_mhz: 705.0,
                mem_mhz: 2600.0,
                ecc: true,
            },
            Event::KernelLaunch {
                t: 3.0,
                launch: 0,
                name: "bfs \"frontier\"".into(),
                grid: 64,
                block_threads: 256,
            },
            Event::BlockDispatch {
                t: 3.0,
                launch: 0,
                block: 0,
                sm: 2,
                slot: 1,
            },
            Event::SmInterval {
                t0: 3.0,
                t1: 3.25,
                sm: 2,
                watts: 7.5,
                issue_frac: 0.875,
                resident: 1,
            },
            Event::BoardInterval {
                t0: 3.0,
                t1: 3.25,
                watts: 60.0,
                phase: BoardPhase::KernelStatic,
            },
            Event::DramInterval {
                t0: 3.0,
                t1: 3.25,
                bytes_per_s: 1.5e11,
                demanders: 2,
            },
            Event::DramContentionOpen {
                t: 3.0,
                demanders: 2,
            },
            Event::BlockComplete {
                t: 3.25,
                launch: 0,
                block: 0,
                sm: 2,
            },
            Event::DramContentionClose { t: 3.25 },
            Event::KernelRetire {
                t: 3.25,
                launch: 0,
                duration_s: 0.25,
                energy_j: 16.875,
            },
            Event::SensorSample {
                t: 3.2,
                watts: 66.2,
                rate_hz: 10.0,
            },
            Event::SensorRateSwitch {
                t: 3.1,
                rate_hz: 10.0,
            },
            Event::ThresholdCross {
                t: 3.05,
                watts: 66.0,
                threshold_w: 40.0,
                rising: true,
            },
            Event::Finding {
                t: 3.1,
                checker: "race-global".into(),
                severity: "warning".into(),
                kernel: "bfs \"frontier\"".into(),
                message: "write/write on dist[3], blocks 0 and 7".into(),
            },
            Event::CacheLookup {
                t: 4.0,
                key: "v1|lbfs@k5|entire USA#n1m2a0x0s0|cfg=default|rep=0".into(),
                hit: true,
                disk: true,
            },
            Event::CampaignProgress {
                t: 4.1,
                done: 17,
                total: 136,
            },
            Event::ClassEnergy {
                t: 9.0,
                class: "ldst".into(),
                energy_j: 123.456,
            },
        ]
    }

    // `sample_events()` as each exporter writes it.
    const JSONL: &str = r##"{"tag":"config","t":0,"core_mhz":705,"mem_mhz":2600,"ecc":true}
{"tag":"kernel_launch","t":3,"launch":0,"name":"bfs \"frontier\"","grid":64,"block_threads":256}
{"tag":"block_dispatch","t":3,"launch":0,"block":0,"sm":2,"slot":1}
{"tag":"sm_interval","t0":3,"t1":3.25,"sm":2,"watts":7.5,"issue_frac":0.875,"resident":1}
{"tag":"board_interval","t0":3,"t1":3.25,"watts":60,"phase":"kernel_static"}
{"tag":"dram_interval","t0":3,"t1":3.25,"bytes_per_s":150000000000,"demanders":2}
{"tag":"dram_contention_open","t":3,"demanders":2}
{"tag":"block_complete","t":3.25,"launch":0,"block":0,"sm":2}
{"tag":"dram_contention_close","t":3.25}
{"tag":"kernel_retire","t":3.25,"launch":0,"duration_s":0.25,"energy_j":16.875}
{"tag":"sensor_sample","t":3.2,"watts":66.2,"rate_hz":10}
{"tag":"sensor_rate_switch","t":3.1,"rate_hz":10}
{"tag":"threshold_cross","t":3.05,"watts":66,"threshold_w":40,"rising":true}
{"tag":"finding","t":3.1,"checker":"race-global","severity":"warning","kernel":"bfs \"frontier\"","message":"write/write on dist[3], blocks 0 and 7"}
{"tag":"cache_lookup","t":4,"key":"v1|lbfs@k5|entire USA#n1m2a0x0s0|cfg=default|rep=0","hit":true,"disk":true}
{"tag":"campaign_progress","t":4.1,"done":17,"total":136}
{"tag":"class_energy","t":9,"class":"ldst","energy_j":123.456}
"##;
    const CSV: &str = r##"tag,t,t1,launch,name,grid,block_threads,block,sm,slot,watts,issue_frac,resident,bytes_per_s,demanders,duration_s,energy_j,rate_hz,threshold_w,rising,phase,core_mhz,mem_mhz,ecc,checker,severity,message,key,hit,disk,done,total,class
config,0,,,,,,,,,,,,,,,,,,,,705,2600,true,,,,,,,,,
kernel_launch,3,,0,"bfs ""frontier""",64,256,,,,,,,,,,,,,,,,,,,,,,,,,,
block_dispatch,3,,0,,,,0,2,1,,,,,,,,,,,,,,,,,,,,,,,
sm_interval,3,3.25,,,,,,2,,7.5,0.875,1,,,,,,,,,,,,,,,,,,,,
board_interval,3,3.25,,,,,,,,60,,,,,,,,,,kernel_static,,,,,,,,,,,,
dram_interval,3,3.25,,,,,,,,,,,150000000000,2,,,,,,,,,,,,,,,,,,
dram_contention_open,3,,,,,,,,,,,,,2,,,,,,,,,,,,,,,,,,
block_complete,3.25,,0,,,,0,2,,,,,,,,,,,,,,,,,,,,,,,,
dram_contention_close,3.25,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,
kernel_retire,3.25,,0,,,,,,,,,,,,0.25,16.875,,,,,,,,,,,,,,,,
sensor_sample,3.2,,,,,,,,,66.2,,,,,,,10,,,,,,,,,,,,,,,
sensor_rate_switch,3.1,,,,,,,,,,,,,,,,10,,,,,,,,,,,,,,,
threshold_cross,3.05,,,,,,,,,66,,,,,,,,40,true,,,,,,,,,,,,,
finding,3.1,,,"bfs ""frontier""",,,,,,,,,,,,,,,,,,,,race-global,warning,"write/write on dist[3], blocks 0 and 7",,,,,,
cache_lookup,4,,,,,,,,,,,,,,,,,,,,,,,,,,v1|lbfs@k5|entire USA#n1m2a0x0s0|cfg=default|rep=0,true,true,,,
campaign_progress,4.1,,,,,,,,,,,,,,,,,,,,,,,,,,,,,17,136,
class_energy,9,,,,,,,,,,,,,,,123.456,,,,,,,,,,,,,,,,ldst
"##;
    const CHROME: &str = r##"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"kepler-sim"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"kernels"}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":0,"name":"config","args":{"core_mhz":705,"mem_mhz":2600,"ecc":true}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"SM 2"}},
{"ph":"C","pid":0,"tid":0,"ts":3000000,"name":"SM 2 power (W)","args":{"watts":7.5}},
{"ph":"C","pid":0,"tid":0,"ts":3000000,"name":"SM 2 occupancy","args":{"resident":1,"issue_frac":0.875}},
{"ph":"C","pid":0,"tid":0,"ts":3000000,"name":"board power (W)","args":{"watts":60,"phase":"kernel_static"}},
{"ph":"C","pid":0,"tid":0,"ts":3000000,"name":"DRAM bandwidth (GB/s)","args":{"gbps":150,"demanders":2}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":3000000,"name":"dram contention open","args":{"demanders":2}},
{"ph":"X","pid":0,"tid":3,"ts":3000000,"dur":250000,"name":"block 0","args":{"launch":0}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":3250000,"name":"dram contention close","args":{}},
{"ph":"X","pid":0,"tid":0,"ts":3000000,"dur":250000,"name":"bfs \"frontier\"","args":{"launch":0,"energy_j":16.875}},
{"ph":"C","pid":0,"tid":0,"ts":3200000,"name":"sensor (W)","args":{"watts":66.2,"rate_hz":10}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":3100000,"name":"sensor rate switch","args":{"rate_hz":10}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":3050000,"name":"threshold rise","args":{"watts":66,"threshold_w":40}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":3100000,"name":"finding: race-global","args":{"severity":"warning","kernel":"bfs \"frontier\"","message":"write/write on dist[3], blocks 0 and 7"}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":4000000,"name":"cache hit","args":{"key":"v1|lbfs@k5|entire USA#n1m2a0x0s0|cfg=default|rep=0","disk":true}},
{"ph":"C","pid":0,"tid":0,"ts":4099999.9999999995,"name":"campaign progress","args":{"done":17,"total":136}},
{"ph":"i","s":"g","pid":0,"tid":0,"ts":9000000,"name":"class energy: ldst","args":{"energy_j":123.456}}
]}
"##;

    /// Every variant's export text is pinned byte for byte.
    #[test]
    fn exports_are_pinned_for_every_variant() {
        let evs = sample_events();
        assert_eq!(jsonl(&evs), JSONL);
        assert_eq!(csv(&evs), CSV);
        assert_eq!(chrome_trace(&evs), CHROME);
    }

    /// Each event's JSONL line parses back, through the codec, to its
    /// field list, `tag` first.
    #[test]
    fn jsonl_round_trips_every_variant() {
        for ev in sample_events() {
            let doc = jsonl(std::slice::from_ref(&ev));
            let line = doc.strip_suffix('\n').unwrap();
            let back = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev.to_json(), "round-trip mismatch for {line}");
            let Json::Obj(fields) = back else {
                panic!("not an object: {line}")
            };
            assert_eq!(fields[0], ("tag".into(), Json::str(ev.tag())));
        }
    }

    /// A whole JSONL document holds one line per event, in order, each
    /// parsing back to that event's field list.
    #[test]
    fn jsonl_document_round_trips() {
        let evs = sample_events();
        let doc = jsonl(&evs);
        let back: Vec<Json> = doc
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        let want: Vec<Json> = evs.iter().map(Event::to_json).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn jsonl_escapes_and_unescapes_names() {
        let name = "odd \"name\"\twith\\stuff\n";
        let ev = Event::KernelLaunch {
            t: 0.0,
            launch: 1,
            name: name.into(),
            grid: 1,
            block_threads: 32,
        };
        let line = jsonl(&[ev]);
        let line = line.strip_suffix('\n').unwrap();
        assert!(!line.contains('\n'), "JSONL line must be newline-free");
        let back = json::parse(line).unwrap();
        assert_eq!(back.get("name").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let doc = chrome_trace(&sample_events());
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(doc.trim_end().ends_with("]}"));
        // Kernel slice labelled with the (escaped) launch name.
        assert!(doc.contains(r#""ph":"X""#));
        assert!(doc.contains(r#""name":"bfs \"frontier\"""#));
        // SM thread metadata and block slice on tid = sm + 1.
        assert!(doc.contains(r#""name":"SM 2""#));
        assert!(doc.contains(r#""tid":3"#));
        // Counter tracks for power and DRAM bandwidth.
        assert!(doc.contains(r#""ph":"C""#));
        assert!(doc.contains(r#""name":"board power (W)""#));
        assert!(doc.contains(r#""name":"DRAM bandwidth (GB/s)""#));
        // Instant events for contention and threshold crossings.
        assert!(doc.contains(r#""name":"dram contention open""#));
        assert!(doc.contains(r#""name":"threshold rise""#));
        // Timestamps are microseconds: 3.25 s retire -> ts 3000000, dur 250000.
        assert!(doc.contains(r#""ts":3000000,"dur":250000"#));
    }

    /// The document parses with the codec, and so does each row on its
    /// own line: one object per line between the framing lines.
    #[test]
    fn chrome_trace_rows_are_valid_flat_json() {
        let doc = chrome_trace(&sample_events());
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{e}"));
        let rows = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(rows.len(), lines.len() - 2);
        for (line, row) in lines[1..lines.len() - 1].iter().zip(rows) {
            let line = line.trim_end_matches(',');
            let back = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, row, "row differs from the document's: {line}");
            assert!(row.get("ph").is_some(), "row without a phase: {line}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_event() {
        let evs = sample_events();
        let doc = csv(&evs);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), evs.len() + 1);
        assert_eq!(lines[0], CSV_HEADER);
        let ncols = CSV_HEADER.split(',').count();
        // A quoted kernel name contains a comma; skip naive splitting there.
        for line in &lines[1..] {
            if !line.contains('"') {
                assert_eq!(line.split(',').count(), ncols, "bad column count: {line}");
            }
        }
        // Kernel name with quotes is escaped per RFC 4180.
        assert!(doc.contains("\"bfs \"\"frontier\"\"\""));
    }
}
