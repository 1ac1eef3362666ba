//! Builtin function library (the `fn:` namespace subset).
//!
//! Arguments arrive unevaluated so that positional functions
//! (`position()`, `last()`) read the dynamic focus and so that argument
//! evaluation shares the caller's work budget.

use crate::error::{XqError, XqResult};
use crate::eval::{eval, DynamicContext};
use crate::value::{document_order_dedup, effective_boolean, Item, Sequence};
use crate::Expr;
use std::borrow::Cow;

/// Names of every builtin this engine provides (used by docs and by the
/// registry's capability advertisement).
pub const BUILTIN_NAMES: &[&str] = &[
    "boolean",
    "not",
    "true",
    "false",
    "string",
    "number",
    "concat",
    "contains",
    "starts-with",
    "ends-with",
    "substring",
    "substring-before",
    "substring-after",
    "string-length",
    "normalize-space",
    "lower-case",
    "upper-case",
    "string-join",
    "translate",
    "tokenize",
    "matches",
    "replace",
    "compare",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "empty",
    "exists",
    "distinct-values",
    "reverse",
    "subsequence",
    "head",
    "tail",
    "zero-or-one",
    "exactly-one",
    "insert-before",
    "remove",
    "index-of",
    "last",
    "position",
    "name",
    "local-name",
    "data",
    "root",
    "round",
    "floor",
    "ceiling",
    "abs",
    "number",
];

macro_rules! bad_arg {
    ($fn_name:expr, $($arg:tt)*) => {
        return Err(XqError::BadArgument { function: $fn_name, message: format!($($arg)*) })
    };
}

/// Evaluate a builtin call.
pub fn call(name: &str, args: &[Expr], ctx: &mut DynamicContext) -> XqResult<Sequence> {
    // Positional functions must read the focus *before* arguments run.
    match (name, args.len()) {
        ("position", 0) => {
            if ctx.position() == 0 {
                return Err(XqError::MissingContextItem);
            }
            return Ok(vec![Item::Number(ctx.position() as f64)]);
        }
        ("last", 0) => {
            if ctx.position() == 0 {
                return Err(XqError::MissingContextItem);
            }
            return Ok(vec![Item::Number(ctx.size() as f64)]);
        }
        ("true", 0) => return Ok(vec![Item::Bool(true)]),
        ("false", 0) => return Ok(vec![Item::Bool(false)]),
        _ => {}
    }

    // Functions with an implicit context-item argument.
    let arg_or_context = |args: &[Expr], ctx: &mut DynamicContext| -> XqResult<Sequence> {
        if args.is_empty() {
            ctx.context_item().cloned().map(|i| vec![i]).ok_or(XqError::MissingContextItem)
        } else {
            eval(&args[0], ctx)
        }
    };

    match name {
        // ---- boolean ----------------------------------------------------
        "boolean" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Bool(effective_boolean(&v)?)])
        }
        "not" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Bool(!effective_boolean(&v)?)])
        }

        // ---- strings ----------------------------------------------------
        "string" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            Ok(vec![Item::Str(match v.first() {
                None => String::new(),
                Some(i) => i.string_value(),
            })])
        }
        "concat" => {
            if args.len() < 2 {
                bad_arg!("concat", "needs at least two arguments, got {}", args.len());
            }
            let mut out = String::new();
            for a in args {
                let v = eval(a, ctx)?;
                if v.len() > 1 {
                    bad_arg!("concat", "argument is a sequence of {} items", v.len());
                }
                if let Some(i) = v.first() {
                    out.push_str(&i.str_value());
                }
            }
            Ok(vec![Item::Str(out)])
        }
        "contains" => str2(name, args, ctx, |a, b| Item::Bool(a.contains(b))),
        "starts-with" => str2(name, args, ctx, |a, b| Item::Bool(a.starts_with(b))),
        "ends-with" => str2(name, args, ctx, |a, b| Item::Bool(a.ends_with(b))),
        "substring-before" => str2(name, args, ctx, |a, b| {
            Item::Str(a.find(b).map(|i| a[..i].to_owned()).unwrap_or_default())
        }),
        "substring-after" => str2(name, args, ctx, |a, b| {
            Item::Str(a.find(b).map(|i| a[i + b.len()..].to_owned()).unwrap_or_default())
        }),
        "substring" => {
            check_arity(name, args, 2..=3)?;
            let s = string_arg(name, &args[0], ctx)?;
            let start = number_arg(name, &args[1], ctx)?;
            let len =
                if args.len() == 3 { number_arg(name, &args[2], ctx)? } else { f64::INFINITY };
            Ok(vec![Item::Str(xpath_substring(&s, start, len))])
        }
        "string-length" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            let s = v.first().map(Item::str_value).unwrap_or_default();
            Ok(vec![Item::Number(s.chars().count() as f64)])
        }
        "normalize-space" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            let s = v.first().map(Item::str_value).unwrap_or_default();
            Ok(vec![Item::Str(s.split_whitespace().collect::<Vec<_>>().join(" "))])
        }
        "lower-case" => str1(name, args, ctx, |s| Item::Str(s.to_lowercase())),
        "upper-case" => str1(name, args, ctx, |s| Item::Str(s.to_uppercase())),
        "translate" => {
            check_arity(name, args, 3..=3)?;
            let s = string_arg(name, &args[0], ctx)?;
            let from: Vec<char> = string_arg(name, &args[1], ctx)?.chars().collect();
            let to: Vec<char> = string_arg(name, &args[2], ctx)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(vec![Item::Str(out)])
        }
        "string-join" => {
            check_arity(name, args, 1..=2)?;
            let seq = eval(&args[0], ctx)?;
            let sep =
                if args.len() == 2 { string_arg(name, &args[1], ctx)? } else { String::new() };
            let parts: Vec<String> = seq.iter().map(|i| i.string_value()).collect();
            Ok(vec![Item::Str(parts.join(&sep))])
        }
        "tokenize" => {
            check_arity(name, args, 2..=2)?;
            let s = string_arg(name, &args[0], ctx)?;
            let sep = string_arg(name, &args[1], ctx)?;
            if sep.is_empty() {
                bad_arg!("tokenize", "separator must not be empty");
            }
            Ok(s.split(sep.as_str()).map(|t| Item::Str(t.to_owned())).collect())
        }
        // A glob-style `matches`: `*` any run, `?` any char (the thesis
        // examples use substring/wildcard matching, not full regexes).
        "matches" => {
            check_arity(name, args, 2..=2)?;
            let s = string_arg(name, &args[0], ctx)?;
            let pat = string_arg(name, &args[1], ctx)?;
            Ok(vec![Item::Bool(glob_match(&pat, &s))])
        }
        // Literal (non-regex) replacement, consistent with glob `matches`.
        "replace" => {
            check_arity(name, args, 3..=3)?;
            let s = string_arg(name, &args[0], ctx)?;
            let from = string_arg(name, &args[1], ctx)?;
            let to = string_arg(name, &args[2], ctx)?;
            if from.is_empty() {
                bad_arg!("replace", "search string must not be empty");
            }
            Ok(vec![Item::Str(s.replace(&from, &to))])
        }
        "compare" => {
            check_arity(name, args, 2..=2)?;
            let a = string_arg(name, &args[0], ctx)?;
            let b = string_arg(name, &args[1], ctx)?;
            Ok(vec![Item::Number(match a.cmp(&b) {
                std::cmp::Ordering::Less => -1.0,
                std::cmp::Ordering::Equal => 0.0,
                std::cmp::Ordering::Greater => 1.0,
            })])
        }

        // ---- numbers ----------------------------------------------------
        "number" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            Ok(vec![Item::Number(match v.first() {
                None => f64::NAN,
                Some(i) => i.number_value(),
            })])
        }
        "round" => num1(name, args, ctx, |n| (n + 0.5).floor()),
        "floor" => num1(name, args, ctx, f64::floor),
        "ceiling" => num1(name, args, ctx, f64::ceil),
        "abs" => num1(name, args, ctx, f64::abs),

        // ---- aggregates ---------------------------------------------------
        "count" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Number(v.len() as f64)])
        }
        "sum" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Number(v.iter().map(|i| i.number_value()).sum())])
        }
        "avg" => {
            let v = one_arg(name, args, ctx)?;
            if v.is_empty() {
                return Ok(Vec::new());
            }
            let sum: f64 = v.iter().map(|i| i.number_value()).sum();
            Ok(vec![Item::Number(sum / v.len() as f64)])
        }
        "min" => extremum(name, args, ctx, true),
        "max" => extremum(name, args, ctx, false),

        // ---- sequences ----------------------------------------------------
        "empty" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Bool(v.is_empty())])
        }
        "exists" => {
            let v = one_arg(name, args, ctx)?;
            Ok(vec![Item::Bool(!v.is_empty())])
        }
        "distinct-values" => {
            let v = one_arg(name, args, ctx)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Sequence::new();
            for item in v {
                let key = item.string_value();
                if seen.insert(key.clone()) {
                    // Atomize: distinct-values yields atomic values.
                    out.push(match item {
                        Item::Number(n) => Item::Number(n),
                        Item::Bool(b) => Item::Bool(b),
                        _ => Item::Str(key),
                    });
                }
            }
            Ok(out)
        }
        "reverse" => {
            let mut v = one_arg(name, args, ctx)?;
            v.reverse();
            Ok(v)
        }
        "head" => {
            let v = one_arg(name, args, ctx)?;
            Ok(v.into_iter().take(1).collect())
        }
        "tail" => {
            let v = one_arg(name, args, ctx)?;
            Ok(v.into_iter().skip(1).collect())
        }
        "zero-or-one" => {
            let v = one_arg(name, args, ctx)?;
            if v.len() > 1 {
                bad_arg!("zero-or-one", "sequence has {} items", v.len());
            }
            Ok(v)
        }
        "exactly-one" => {
            let v = one_arg(name, args, ctx)?;
            if v.len() != 1 {
                bad_arg!("exactly-one", "sequence has {} items", v.len());
            }
            Ok(v)
        }
        "subsequence" => {
            check_arity(name, args, 2..=3)?;
            let v = eval(&args[0], ctx)?;
            let start = number_arg(name, &args[1], ctx)?.round();
            let len = if args.len() == 3 {
                number_arg(name, &args[2], ctx)?.round()
            } else {
                f64::INFINITY
            };
            let begin = (start.max(1.0) - 1.0) as usize;
            let end_excl = if len.is_infinite() {
                v.len()
            } else {
                ((start + len - 1.0).max(0.0) as usize).min(v.len())
            };
            if begin >= v.len() || begin >= end_excl {
                return Ok(Vec::new());
            }
            Ok(v[begin..end_excl].to_vec())
        }
        "insert-before" => {
            check_arity(name, args, 3..=3)?;
            let mut v = eval(&args[0], ctx)?;
            let pos = number_arg(name, &args[1], ctx)?.round().max(1.0) as usize;
            let ins = eval(&args[2], ctx)?;
            let at = (pos - 1).min(v.len());
            let tail = v.split_off(at);
            v.extend(ins);
            v.extend(tail);
            Ok(v)
        }
        "remove" => {
            check_arity(name, args, 2..=2)?;
            let mut v = eval(&args[0], ctx)?;
            let pos = number_arg(name, &args[1], ctx)?.round();
            if pos >= 1.0 && (pos as usize) <= v.len() {
                v.remove(pos as usize - 1);
            }
            Ok(v)
        }
        "index-of" => {
            check_arity(name, args, 2..=2)?;
            let v = eval(&args[0], ctx)?;
            let needle = eval(&args[1], ctx)?;
            let needle = match needle.as_slice() {
                [single] => single.string_value(),
                other => {
                    bad_arg!("index-of", "search term must be a single item, got {}", other.len())
                }
            };
            Ok(v.iter()
                .enumerate()
                .filter(|(_, i)| i.str_value() == needle)
                .map(|(idx, _)| Item::Number((idx + 1) as f64))
                .collect())
        }

        // ---- nodes --------------------------------------------------------
        "name" | "local-name" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            let n = match v.first() {
                None => String::new(),
                Some(Item::Node(node)) => {
                    let full = node.name_str();
                    if name == "local-name" {
                        full.split_once(':').map_or(full, |(_, local)| local).to_owned()
                    } else {
                        full.to_owned()
                    }
                }
                Some(_) => bad_arg!("name", "argument must be a node"),
            };
            Ok(vec![Item::Str(n)])
        }
        "data" => {
            let v = one_arg(name, args, ctx)?;
            Ok(v.into_iter()
                .map(|i| match i {
                    Item::Node(n) => Item::Str(n.string_value()),
                    other => other,
                })
                .collect())
        }
        "root" => {
            check_arity(name, args, 0..=1)?;
            let v = arg_or_context(args, ctx)?;
            let mut out = Sequence::new();
            for item in v {
                match item {
                    Item::Node(n) => {
                        out.push(Item::Node(crate::value::NodeRef::document_node(
                            n.document().clone(),
                            n.doc_ord(),
                        )));
                    }
                    _ => bad_arg!("root", "argument must be a node"),
                }
            }
            document_order_dedup(&mut out);
            Ok(out)
        }

        _ => Err(XqError::UnknownFunction { name: name.to_owned(), arity: args.len() }),
    }
}

// ==== helpers ==============================================================

fn check_arity(name: &str, args: &[Expr], range: std::ops::RangeInclusive<usize>) -> XqResult<()> {
    if range.contains(&args.len()) {
        Ok(())
    } else {
        Err(XqError::UnknownFunction { name: name.to_owned(), arity: args.len() })
    }
}

fn one_arg(name: &str, args: &[Expr], ctx: &mut DynamicContext) -> XqResult<Sequence> {
    check_arity(name, args, 1..=1)?;
    eval(&args[0], ctx)
}

/// Evaluate a string argument, which must be empty or a single item.
fn string_arg_items(fn_name: &str, arg: &Expr, ctx: &mut DynamicContext) -> XqResult<Sequence> {
    let v = eval(arg, ctx)?;
    match v.len() {
        0 | 1 => Ok(v),
        n => Err(XqError::BadArgument {
            function: "string argument",
            message: format!("{fn_name}: expected a singleton, got {n} items"),
        }),
    }
}

/// The string a [`string_arg_items`] result stands for, borrowed from it.
fn arg_str(items: &[Item]) -> Cow<'_, str> {
    items.first().map(Item::str_value).unwrap_or_default()
}

fn string_arg(fn_name: &str, arg: &Expr, ctx: &mut DynamicContext) -> XqResult<String> {
    Ok(arg_str(&string_arg_items(fn_name, arg, ctx)?).into_owned())
}

fn number_arg(fn_name: &str, arg: &Expr, ctx: &mut DynamicContext) -> XqResult<f64> {
    let v = eval(arg, ctx)?;
    match v.len() {
        1 => Ok(v[0].number_value()),
        n => Err(XqError::BadArgument {
            function: "numeric argument",
            message: format!("{fn_name}: expected a singleton number, got {n} items"),
        }),
    }
}

fn str1(
    name: &str,
    args: &[Expr],
    ctx: &mut DynamicContext,
    f: impl Fn(&str) -> Item,
) -> XqResult<Sequence> {
    check_arity(name, args, 1..=1)?;
    let s = string_arg_items(name, &args[0], ctx)?;
    Ok(vec![f(&arg_str(&s))])
}

fn str2(
    name: &str,
    args: &[Expr],
    ctx: &mut DynamicContext,
    f: impl Fn(&str, &str) -> Item,
) -> XqResult<Sequence> {
    check_arity(name, args, 2..=2)?;
    let a = string_arg_items(name, &args[0], ctx)?;
    let b = string_arg_items(name, &args[1], ctx)?;
    Ok(vec![f(&arg_str(&a), &arg_str(&b))])
}

fn num1(
    name: &str,
    args: &[Expr],
    ctx: &mut DynamicContext,
    f: impl Fn(f64) -> f64,
) -> XqResult<Sequence> {
    check_arity(name, args, 1..=1)?;
    let v = eval(&args[0], ctx)?;
    match v.len() {
        0 => Ok(Vec::new()),
        1 => Ok(vec![Item::Number(f(v[0].number_value()))]),
        _ => Err(XqError::TypeError(format!("{name}() over a sequence"))),
    }
}

fn extremum(name: &str, args: &[Expr], ctx: &mut DynamicContext, min: bool) -> XqResult<Sequence> {
    let v = one_arg(name, args, ctx)?;
    if v.is_empty() {
        return Ok(Vec::new());
    }
    // Numeric when every member parses as a number, else string comparison.
    let nums: Vec<f64> = v.iter().map(|i| i.number_value()).collect();
    if nums.iter().all(|n| !n.is_nan()) {
        let best =
            nums.into_iter().reduce(|a, b| if (b < a) == min { b } else { a }).expect("nonempty");
        return Ok(vec![Item::Number(best)]);
    }
    let best = v
        .iter()
        .map(|i| i.string_value())
        .reduce(|a, b| if (b < a) == min { b } else { a })
        .expect("nonempty");
    Ok(vec![Item::Str(best)])
}

/// XPath 1.0 `substring()` rounding semantics.
fn xpath_substring(s: &str, start: f64, len: f64) -> String {
    if start.is_nan() || len.is_nan() {
        return String::new();
    }
    let begin = start.round();
    let end = if len.is_infinite() { f64::INFINITY } else { begin + len.round() };
    s.chars()
        .enumerate()
        .filter(|(i, _)| {
            let pos = (*i + 1) as f64;
            pos >= begin && pos < end
        })
        .map(|(_, c)| c)
        .collect()
}

/// Glob matching with `*` and `?` (iterative, no backtracking blowup).
fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star_pi, mut star_ti) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star_pi = pi;
            star_ti = ti;
            pi += 1;
        } else if star_pi != usize::MAX {
            pi = star_pi + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::glob_match;

    #[test]
    fn glob_basics() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(glob_match("*.cern.ch", "lxplus.cern.ch"));
        assert!(!glob_match("*.cern.ch", "lxplus.cern.org"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("abc", "abd"));
    }

    #[test]
    fn glob_no_blowup() {
        // Adversarial pattern that kills naive recursive matchers.
        let text = "a".repeat(200);
        let pattern = "a*".repeat(50) + "b";
        assert!(!glob_match(&pattern, &text));
    }
}
