//! `icnoc-benchmark`: the time-to-verdict benchmark. See README.md.

use std::path::PathBuf;
use std::time::Duration;

use icnoc_benchmark::child::{child_main, CHILD_ARG, SPECULATE_ENV};
use icnoc_benchmark::compare::compare;
use icnoc_benchmark::report::WorkloadResult;
use icnoc_benchmark::runner::{run_set, run_timed};
use icnoc_benchmark::trace::chrome_trace;
use icnoc_benchmark::workload::{Bench, Sizes, Workload};
use icnoc_explore::JsonValue;

const USAGE: &str = "\
usage:
  icnoc-benchmark [--seed N] [--workloads a,b,...] [--trace 0|1] [--out run.json]
                  [--chrome-trace trace.json]
      a full set: every workload's reps, interleaved, then one traced rep each
  icnoc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--chrome-trace trace.json]
      one workload for about S seconds; the last stdout line is a JSON result
      with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
  icnoc-benchmark --compare BASE.json NEW.json
      verdicts per workload and end-to-end metric; exits 1 on any regression
workloads: soak256 wide2048 clocksoak256 sweep48 serve";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: true,
        out: None,
        chrome_trace: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(workload(value()?)?),
            "--workloads" => {
                parsed.workloads = value()?
                    .split(',')
                    .map(workload)
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                };
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--chrome-trace" => parsed.chrome_trace = Some(value()?.into()),
            "--compare" => {
                let base = value()?.into();
                parsed.compare = Some((base, value()?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn write_chrome_trace(path: &PathBuf, results: &[WorkloadResult]) -> Result<(), String> {
    let groups: Vec<(String, Vec<_>)> = results
        .iter()
        .filter(|r| !r.spans.is_empty())
        .map(|r| (r.workload.name().to_owned(), r.spans.clone()))
        .collect();
    write(path, &chrome_trace(&groups))
}

fn host() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    JsonValue::Obj(vec![
        ("nproc".into(), JsonValue::Num(nproc as f64)),
        ("rustc".into(), JsonValue::Str(rustc)),
    ])
}

fn run(args: Args) -> Result<i32, String> {
    if let Some((base, new)) = &args.compare {
        let load = |p: &PathBuf| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))
                .and_then(|t| JsonValue::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
        };
        let (text, pass) = compare(&load(base)?, &load(new)?);
        print!("{text}");
        return Ok(if pass { 0 } else { 1 });
    }
    let bench = Bench {
        exe: std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?,
        sizes: Sizes::full(),
        seed: args.seed,
    };
    if let Some(w) = args.workload {
        let result = run_timed(&bench, w, Duration::from_secs(args.seconds), args.trace);
        print!("{}", result.render());
        if let Some(path) = &args.chrome_trace {
            write_chrome_trace(path, std::slice::from_ref(&result))?;
        }
        let measured = if args.trace {
            !result.spans.is_empty()
        } else {
            result.e2e.iter().all(|s| !s.values.is_empty())
        };
        if !measured {
            return Err(format!("{}: nothing measured", w.name()));
        }
        println!("{}", result.result_line(args.trace).to_compact());
        return Ok(0);
    }

    let results = run_set(&bench, &args.workloads, Workload::set_reps, args.trace);
    for r in &results {
        print!("{}", r.render());
    }
    if let Some(path) = &args.out {
        let doc = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Num(1.0)),
            ("seed".into(), JsonValue::Num(args.seed as f64)),
            ("host".into(), host()),
            (
                "workloads".into(),
                JsonValue::Arr(results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ]);
        write(path, &(doc.to_pretty() + "\n"))?;
    }
    if let Some(path) = &args.chrome_trace {
        write_chrome_trace(path, &results)?;
    }
    Ok(if results.iter().all(|r| r.failures.is_empty()) {
        0
    } else {
        1
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(CHILD_ARG) {
        std::process::exit(child_main(args[1..].to_vec()));
    }
    // Traced reps parse their command lines in this process; keep them on
    // the configuration the children (which never see it) run.
    std::env::remove_var(SPECULATE_ENV);
    let code = match parse(&args) {
        Ok(args) => run(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            1
        }),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
