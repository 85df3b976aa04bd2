//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for
//! the shapes this workspace actually uses — non-generic structs
//! (named, tuple, unit) and enums (unit, tuple, and struct variants) —
//! without `syn`/`quote`, by walking the raw token stream. Generated
//! code targets the vendored `serde` shim's `to_value`/`from_value`
//! traits and follows serde's externally-tagged enum representation
//! and transparent newtype structs.
//!
//! The only field attribute implemented is `#[serde(default = "path")]`
//! on a named field: a missing key deserializes to `path()`. Every other
//! `#[serde(...)]` form, and `default` anywhere but on a named field, is
//! rejected at derive time, so an option this shim does not implement
//! can never be dropped silently.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field: its name and, for `#[serde(default = "path")]`,
/// the path of the function that supplies a missing value.
struct Field {
    name: String,
    default: Option<String>,
}

/// Field layout of a struct or of one enum variant.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

enum Kind {
    Struct(Shape),
    Enum(Vec<(String, Shape)>),
}

struct Input {
    name: String,
    kind: Kind,
}

type Toks = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Reads one attribute body (the text inside `#[...]`). Attributes
/// other than `serde` give `Ok(None)`; `serde(default = "path")` gives
/// the path; any other `serde(...)` form is an error.
fn serde_default(body: &str) -> Result<Option<String>, String> {
    let compact: String = body.split_whitespace().collect();
    let Some(args) = compact.strip_prefix("serde") else { return Ok(None) };
    if args.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
        return Ok(None); // another attribute whose name starts with `serde`
    }
    let path = args
        .strip_prefix("(default=\"")
        .and_then(|rest| rest.strip_suffix("\")"))
        .filter(|p| is_path(p));
    match path {
        Some(p) => Ok(Some(p.to_string())),
        None => Err(format!(
            "unsupported attribute `#[{body}]`: only `#[serde(default = \"path\")]` is implemented"
        )),
    }
}

/// Whether `p` is a plain Rust path (`a`, `a::b`, ...).
fn is_path(p: &str) -> bool {
    p.split("::").all(|seg| {
        seg.starts_with(|c: char| c.is_alphabetic() || c == '_')
            && seg.chars().all(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Consumes a run of outer attributes and returns the default path of a
/// `#[serde(default = "path")]` among them. Panics (a derive-time error)
/// on any other `serde` attribute.
fn take_attrs(toks: &mut Toks) -> Option<String> {
    let mut default = None;
    while let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() != '#' {
            break;
        }
        toks.next();
        let body = match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g.stream(),
            other => panic!("serde shim derive: expected attribute body, got {other:?}"),
        };
        let body = body.to_string();
        match serde_default(&body) {
            Ok(Some(path)) => default = Some(path),
            Ok(None) => {}
            Err(e) => panic!("serde shim derive: {e}"),
        }
    }
    default
}

/// Consumes attributes where `#[serde(default = ...)]` has no meaning
/// (containers, variants, tuple fields).
fn skip_attrs(toks: &mut Toks, what: &str) {
    if let Some(path) = take_attrs(toks) {
        panic!(
            "serde shim derive: `#[serde(default = \"{path}\")]` on {what}: only named fields take a default"
        );
    }
}

fn skip_vis(toks: &mut Toks) {
    if let Some(TokenTree::Ident(id)) = toks.peek() {
        if id.to_string() == "pub" {
            toks.next();
            if let Some(TokenTree::Group(g)) = toks.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    // pub(crate) / pub(super) restriction.
                    toks.next();
                }
            }
        }
    }
}

/// Consumes tokens up to (and including) a comma at angle-bracket depth
/// zero. Groups are single tokens, so only `<`/`>` need tracking.
/// Returns true if any token (i.e. a field) was consumed before the
/// comma or end of stream.
fn skip_past_comma(toks: &mut Toks) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    for tok in toks.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
        any = true;
    }
    any
}

fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut toks: Toks = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let default = take_attrs(&mut toks);
        skip_vis(&mut toks);
        match toks.next() {
            Some(TokenTree::Ident(id)) => {
                let name = id.to_string();
                // Consume ':' then the type up to the next field.
                let colon = toks.next();
                assert!(
                    matches!(&colon, Some(TokenTree::Punct(p)) if p.as_char() == ':'),
                    "serde shim derive: expected `:` after field `{name}`"
                );
                fields.push(Field { name, default });
                skip_past_comma(&mut toks);
            }
            Some(other) => panic!("serde shim derive: unexpected token in fields: {other}"),
            None => break,
        }
    }
    fields
}

fn parse_tuple_arity(body: TokenStream) -> usize {
    let mut toks: Toks = body.into_iter().peekable();
    let mut arity = 0;
    loop {
        skip_attrs(&mut toks, "a tuple field");
        skip_vis(&mut toks);
        if toks.peek().is_none() {
            break;
        }
        if skip_past_comma(&mut toks) {
            arity += 1;
        } else {
            break;
        }
    }
    arity
}

fn parse_shape_after_name(toks: &mut Toks) -> Shape {
    match toks.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let g = match toks.next() {
                Some(TokenTree::Group(g)) => g,
                _ => unreachable!(),
            };
            Shape::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let g = match toks.next() {
                Some(TokenTree::Group(g)) => g,
                _ => unreachable!(),
            };
            Shape::Tuple(parse_tuple_arity(g.stream()))
        }
        _ => Shape::Unit,
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut toks: Toks = input.into_iter().peekable();
    skip_attrs(&mut toks, "a container");
    skip_vis(&mut toks);
    let kw = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        assert!(p.as_char() != '<', "serde shim derive: generic type `{name}` not supported");
    }
    let kind = match kw.as_str() {
        "struct" => Kind::Struct(parse_shape_after_name(&mut toks)),
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: expected enum body, got {other:?}"),
            };
            let mut vt: Toks = body.into_iter().peekable();
            let mut variants = Vec::new();
            loop {
                skip_attrs(&mut vt, "an enum variant");
                match vt.next() {
                    Some(TokenTree::Ident(id)) => {
                        let vname = id.to_string();
                        let shape = parse_shape_after_name(&mut vt);
                        variants.push((vname, shape));
                        // Consume trailing `,` (and any `= disc`).
                        skip_past_comma(&mut vt);
                    }
                    Some(other) => {
                        panic!("serde shim derive: unexpected token in enum body: {other}")
                    }
                    None => break,
                }
            }
            Kind::Enum(variants)
        }
        other => panic!("serde shim derive: cannot derive for `{other}`"),
    };
    Input { name, kind }
}

fn obj_literal(pairs: &[(String, String)]) -> String {
    let items: Vec<String> =
        pairs.iter().map(|(k, v)| format!("({k:?}.to_string(), {v})")).collect();
    format!("::serde::Value::Obj(vec![{}])", items.join(", "))
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Shape::Unit) => "::serde::Value::Null".to_string(),
        Kind::Struct(Shape::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
            format!("::serde::Value::Arr(vec![{}])", items.join(", "))
        }
        Kind::Struct(Shape::Named(fields)) => {
            let pairs: Vec<(String, String)> = fields
                .iter()
                .map(|Field { name: f, .. }| {
                    (f.clone(), format!("::serde::Serialize::to_value(&self.{f})"))
                })
                .collect();
            obj_literal(&pairs)
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for (v, shape) in variants {
                let arm = match shape {
                    Shape::Unit => {
                        format!("{name}::{v} => ::serde::Value::Str({v:?}.to_string()),")
                    }
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(x0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Arr(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{v}({binds}) => ::serde::Value::Obj(vec![({v:?}.to_string(), {inner})]),",
                            binds = binds.join(", ")
                        )
                    }
                    Shape::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let pairs: Vec<(String, String)> = names
                            .iter()
                            .map(|f| (f.to_string(), format!("::serde::Serialize::to_value({f})")))
                            .collect();
                        let inner = obj_literal(&pairs);
                        format!(
                            "{name}::{v} {{ {fields} }} => ::serde::Value::Obj(vec![({v:?}.to_string(), {inner})]),",
                            fields = names.join(", ")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

/// The `name: expr` initializer deserializing one named field out of
/// the object `src`: a required key, or `path()` when the key is
/// missing and the field has a default.
fn named_field(f: &Field, src: &str) -> String {
    let name = &f.name;
    match &f.default {
        None => {
            format!("{name}: ::serde::Deserialize::from_value(::serde::field({src}, {name:?})?)?")
        }
        Some(path) => format!(
            "{name}: match {src}.get({name:?}) {{ \
                 Some(x) => ::serde::Deserialize::from_value(x)?, \
                 None => {path}(), \
             }}"
        ),
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Shape::Unit) => format!("Ok({name})"),
        Kind::Struct(Shape::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> =
                (0..*n).map(|i| format!("::serde::Deserialize::from_value(&xs[{i}])?")).collect();
            format!(
                "match v {{\n\
                     ::serde::Value::Arr(xs) if xs.len() == {n} => Ok({name}({items})),\n\
                     other => Err(::serde::DeError(format!(\"expected {n}-tuple for {name}, got {{other:?}}\"))),\n\
                 }}",
                items = items.join(", ")
            )
        }
        Kind::Struct(Shape::Named(fields)) => {
            let items: Vec<String> = fields.iter().map(|f| named_field(f, "v")).collect();
            format!("Ok({name} {{ {} }})", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (v, shape) in variants {
                match shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),"));
                        // Also accept the tagged-null form for robustness.
                        tagged_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),"));
                    }
                    Shape::Tuple(1) => {
                        tagged_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),"
                        ));
                    }
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&xs[{i}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "{v:?} => match inner {{\n\
                                 ::serde::Value::Arr(xs) if xs.len() == {n} => return Ok({name}::{v}({items})),\n\
                                 other => return Err(::serde::DeError(format!(\"bad payload for {name}::{v}: {{other:?}}\"))),\n\
                             }},",
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let items: Vec<String> =
                            fields.iter().map(|f| named_field(f, "inner")).collect();
                        tagged_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v} {{ {items} }}),",
                            items = items.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                     ::serde::Value::Str(s) => match s.as_str() {{ {unit_arms} _ => {{}} }},\n\
                     ::serde::Value::Obj(pairs) if pairs.len() == 1 => {{\n\
                         let (tag, inner) = &pairs[0];\n\
                         let _ = inner;\n\
                         match tag.as_str() {{ {tagged_arms} _ => {{}} }}\n\
                     }}\n\
                     _ => {{}}\n\
                 }}\n\
                 Err(::serde::DeError(format!(\"no matching variant of {name} for {{v:?}}\")))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Serialize impl failed to parse")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde shim derive: generated Deserialize impl failed to parse")
}

#[cfg(test)]
mod tests {
    use super::serde_default;

    #[test]
    fn default_path_is_read() {
        assert_eq!(serde_default(r#"serde(default = "f")"#), Ok(Some("f".into())));
        assert_eq!(
            serde_default(r#"serde (default = "crate::cfg::f")"#),
            Ok(Some("crate::cfg::f".into()))
        );
    }

    #[test]
    fn other_attributes_pass_through() {
        assert_eq!(serde_default(r#"doc = " serde(skip) in prose""#), Ok(None));
        assert_eq!(serde_default("allow(dead_code)"), Ok(None));
        assert_eq!(serde_default("serde_like(x)"), Ok(None));
    }

    #[test]
    fn unimplemented_serde_forms_are_rejected() {
        for body in [
            "serde(skip)",
            "serde(default)",
            r#"serde(rename = "x")"#,
            r#"serde(default = "f", rename = "x")"#,
            r#"serde(default = "")"#,
            r#"serde(default = "f()")"#,
            "serde",
        ] {
            assert!(serde_default(body).is_err(), "{body} must be rejected");
        }
    }
}
