//! Minimal shared CSV rendering.
//!
//! The statistics and monitor reports each hand-rolled their own row
//! formatting; this is the one shared implementation. Quoting follows
//! RFC 4180: a field is quoted only when it contains a comma, a double
//! quote, or a newline (embedded quotes are doubled), so the plain
//! identifiers and numbers the reports emit stay byte-identical to the
//! historical output.

/// Escapes one CSV field, quoting only when necessary.
pub(crate) fn csv_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Renders one CSV row (with trailing newline) from already-formatted
/// cells, escaping each as needed.
pub(crate) fn csv_row<S: AsRef<str>>(cells: &[S]) -> String {
    let mut out = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&csv_field(cell.as_ref()));
    }
    out.push('\n');
    out
}

/// Renders one Graphviz node line:
/// `  j<id> [label="<label>", shape=<shape>[, color=<color>]];`
///
/// Shared by the DOT emitters so the node syntax is written (and
/// escaped) in exactly one place, like [`csv_row`] is for CSV rows.
pub(crate) fn dot_node(
    id: impl std::fmt::Display,
    label: &str,
    shape: &str,
    color: Option<&str>,
) -> String {
    match color {
        Some(c) => format!("  j{id} [label=\"{label}\", shape={shape}, color={c}];\n"),
        None => format!("  j{id} [label=\"{label}\", shape={shape}];\n"),
    }
}

/// Renders one Graphviz edge line: `  j<parent> -> j<child>;`
pub(crate) fn dot_edge(parent: impl std::fmt::Display, child: impl std::fmt::Display) -> String {
    format!("  j{parent} -> j{child};\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through_unquoted() {
        assert_eq!(csv_field("run_cap3_0"), "run_cap3_0");
        assert_eq!(csv_field("12.500"), "12.500");
        assert_eq!(csv_field(""), "");
        assert_eq!(csv_row(&["a", "b", "1.000"]), "a,b,1.000\n");
    }

    #[test]
    fn commas_quotes_and_newlines_get_quoted() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_row(&["x,y", "plain"]), "\"x,y\",plain\n");
    }

    #[test]
    fn quoted_fields_keep_row_shape() {
        // A parser splitting on unquoted commas sees exactly 3 cells.
        let row = csv_row(&["a,b", "c", "d\"e"]);
        assert_eq!(row, "\"a,b\",c,\"d\"\"e\"\n");
    }
}
