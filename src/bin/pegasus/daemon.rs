//! `serve`, `submit` and `status`: the multi-tenant ensemble daemon and
//! its clients.

use crate::{common, or_exit, success_if};
use blast2cap3_pegasus::cli::{opt, switch, Args, Verb};
use blast2cap3_pegasus::{outln, serve};
use gridsim::sites::SLOTS;
use pegasus_wms::serve::{
    render_response_head, Request, ResponseHead, SubmitRequest, SubmitSource,
};
use std::process::ExitCode;

pub(crate) const SERVE: Verb = Verb {
    name: "serve",
    summary: "multi-tenant ensemble daemon with journal, recovery, and /metrics",
    positional: None,
    flags: &[
        common::ADDR,
        opt("metrics-addr", "host:port", "HTTP /metrics scrape address"),
        opt(
            "dir",
            "dir",
            "state directory (journal + member event logs)",
        ),
        common::SITES,
        common::SEED,
        common::RETRIES,
        opt("slots", "n", "global slot budget per round").range(SLOTS),
        opt("tenant-slots", "n", "per-tenant in-flight job quota").range(SLOTS),
        opt("tenant-active", "n", "per-tenant queued-submission quota").at_least(1),
        opt(
            "crash-after-members",
            "n",
            "test hook: abort after n member completions",
        ),
    ],
    run: cmd_serve,
};

pub(crate) const SUBMIT: Verb = Verb {
    name: "submit",
    summary: "submit workflows to a serve daemon (and run/cancel/shutdown)",
    positional: None,
    flags: &[
        common::ADDR,
        opt("tenant", "name", "tenant the submission is accounted to"),
        common::SITE,
        opt(
            "n",
            "clusters",
            "submit a generated blast2cap3 of this size",
        ),
        opt(
            "dax",
            "file",
            "submit this DAX file (lint-checked at admission)",
        ),
        common::SEED,
        common::RETRIES,
        opt("priority", "i32", "admission priority (higher first)"),
        opt("trace", "hex", "trace id keying this workflow's spans"),
        opt("cancel", "id", "cancel a queued submission"),
        switch("run", "run every queued submission as one batch of rounds"),
        switch("shutdown", "stop the daemon"),
    ],
    run: cmd_submit,
};

pub(crate) const STATUS: Verb = Verb {
    name: "status",
    summary: "member table from a live daemon (--addr) or its directory (--dir)",
    positional: None,
    flags: &[
        common::ADDR,
        opt("dir", "dir", "render offline from a daemon state directory"),
        switch("rollup", "print the ensemble rollup CSV instead"),
        switch("metrics", "print the Prometheus exposition instead"),
        opt("trace", "id", "print the span tree of one member instead"),
    ],
    run: cmd_status,
};

/// `pegasus serve` — run the multi-tenant ensemble daemon until a
/// `shutdown` request arrives over the protocol socket.
fn cmd_serve(args: &Args) -> ExitCode {
    let opts = serve::ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        metrics_addr: args
            .get("metrics-addr")
            .unwrap_or("127.0.0.1:7071")
            .to_string(),
        dir: std::path::PathBuf::from(args.get("dir").unwrap_or("serve-state")),
        seed: args.parsed("seed", 20140519u64),
        retries: args.parsed("retries", 3u32),
        slot_budget: args.parsed_opt("slots"),
        tenant_slots: args.parsed_opt("tenant-slots"),
        tenant_active: args.parsed_opt("tenant-active"),
        crash_after_members: args.parsed_opt("crash-after-members"),
        sites: args.get("sites").map(std::path::PathBuf::from),
    };
    or_exit("serve", serve::serve(&opts));
    ExitCode::SUCCESS
}

/// Connects to the daemon at `--addr`, or reports `<verb>: <error>`
/// and exits 1.
fn connect_or_exit(args: &Args, verb: &str) -> serve::client::Connection {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    or_exit(verb, serve::client::Connection::open(addr))
}

/// `pegasus submit` — the daemon's write-side client: submit a
/// generated workload or a DAX, cancel a queued member, trigger a
/// batch of rounds, or shut the daemon down. Requests are sent in
/// cancel → submit → run → shutdown order; each response head is
/// printed on its own line.
fn cmd_submit(args: &Args) -> ExitCode {
    let mut requests: Vec<Request> = Vec::new();
    if let Some(id) = args.parsed_opt::<usize>("cancel") {
        requests.push(Request::Cancel { id });
    }
    let source = match (args.parsed_opt::<usize>("n"), args.get("dax")) {
        (Some(n), None) => Some(SubmitSource::Generated { n }),
        (None, Some(path)) => Some(SubmitSource::Dax {
            path: path.to_string(),
        }),
        (None, None) => None,
        (Some(_), Some(_)) => args.bail("give either --n or --dax, not both"),
    };
    if let Some(source) = source {
        requests.push(Request::Submit(SubmitRequest {
            tenant: args
                .get("tenant")
                .unwrap_or(pegasus_wms::ensemble::DEFAULT_TENANT)
                .to_string(),
            site: args.require("site").to_string(),
            seed: args.parsed_opt("seed"),
            retries: args.parsed_opt("retries"),
            priority: args.parsed("priority", 0),
            trace: args.parsed_opt("trace"),
            source,
        }));
    }
    if args.flag("run") {
        requests.push(Request::Run);
    }
    if args.flag("shutdown") {
        requests.push(Request::Shutdown);
    }
    if requests.is_empty() {
        args.bail("nothing to do: give --n/--dax, --cancel, --run, or --shutdown");
    }

    let mut conn = connect_or_exit(args, "submit");
    let mut ok = true;
    for req in &requests {
        let (head, payload) = or_exit("submit", conn.request(req));
        outln!("{}", render_response_head(&head));
        for line in payload {
            outln!("{line}");
        }
        ok &= !matches!(head, ResponseHead::Error(_));
    }
    success_if(ok)
}

/// `pegasus status` — the member table, either live from a daemon
/// (`--addr`) or replayed offline from its state directory (`--dir`);
/// the two render byte-identical lines. `--rollup`/`--metrics` switch
/// the live query to the ensemble rollup CSV or the Prometheus
/// exposition.
fn cmd_status(args: &Args) -> ExitCode {
    if let Some(dir) = args.get("dir") {
        let lines = serve::status_lines_offline(std::path::Path::new(dir));
        for l in or_exit("status", lines) {
            outln!("{l}");
        }
        return ExitCode::SUCCESS;
    }
    let req = if let Some(id) = args.parsed_opt::<usize>("trace") {
        Request::Trace { id }
    } else if args.flag("rollup") {
        Request::Rollup
    } else if args.flag("metrics") {
        Request::Metrics
    } else {
        Request::Status
    };
    let mut conn = connect_or_exit(args, "status");
    match or_exit("status", conn.request(&req)) {
        (ResponseHead::Error(e), _) => or_exit("status", Err(e)),
        (_, payload) => {
            for line in payload {
                outln!("{line}");
            }
            ExitCode::SUCCESS
        }
    }
}
