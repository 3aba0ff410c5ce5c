//! Transformation-name → task-kernel wiring for real execution.

use blast2cap3::files;
use cap3::Cap3Params;
use condor::pool::{TaskContext, TaskRegistry};
use pegasus_wms::symbols::Name;

fn parse_n(args: &[Name]) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == "-n" {
            return it
                .next()
                .ok_or_else(|| "-n with no value".to_string())?
                .parse()
                .map_err(|e| format!("bad -n value: {e}"));
        }
    }
    Err(format!("missing -n in args {args:?}"))
}

fn parse_index(args: &[Name]) -> Result<usize, String> {
    args.first()
        .ok_or_else(|| "missing chunk index argument".to_string())?
        .parse()
        .map_err(|e| format!("bad chunk index: {e}"))
}

/// Builds the registry executing the six Fig. 2 transformations over
/// real files in each task's work directory. `cap3_params` configures
/// the merge cutoffs used by every `run_cap3` task.
pub fn build_registry(cap3_params: Cap3Params) -> TaskRegistry {
    let mut reg = TaskRegistry::new();
    reg.register("list_transcripts", |ctx: &TaskContext| {
        files::task_list_transcripts(&ctx.workdir)
    });
    reg.register("list_alignments", |ctx: &TaskContext| {
        files::task_list_alignments(&ctx.workdir)
    });
    reg.register("split", |ctx: &TaskContext| {
        files::task_split(&ctx.workdir, parse_n(&ctx.args)?)
    });
    let params = cap3_params.clone();
    reg.register("run_cap3", move |ctx: &TaskContext| {
        files::task_run_cap3(&ctx.workdir, parse_index(&ctx.args)?, &params)
    });
    reg.register("merge", |ctx: &TaskContext| {
        files::task_merge(&ctx.workdir, parse_n(&ctx.args)?)
    });
    reg.register("extract_unjoined", |ctx: &TaskContext| {
        files::task_extract_unjoined(&ctx.workdir)
    });
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_six_transformations() {
        let reg = build_registry(Cap3Params::default());
        for t in [
            "list_transcripts",
            "list_alignments",
            "split",
            "run_cap3",
            "merge",
            "extract_unjoined",
        ] {
            assert!(reg.get(t).is_some(), "{t} missing");
        }
        assert_eq!(reg.len(), 6);
    }

    #[test]
    fn arg_parsers() {
        assert_eq!(parse_n(&["-n".into(), "300".into()]).unwrap(), 300);
        assert_eq!(parse_n(&["x".into(), "-n".into(), "7".into()]).unwrap(), 7);
        assert!(parse_n(&[]).is_err());
        assert!(parse_n(&["-n".into()]).is_err());
        assert!(parse_n(&["-n".into(), "many".into()]).is_err());
        assert_eq!(parse_index(&["12".into()]).unwrap(), 12);
        assert!(parse_index(&[]).is_err());
        assert!(parse_index(&["x".into()]).is_err());
    }
}
