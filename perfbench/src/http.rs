//! A minimal HTTP/1.1 client for the daemon (one request per connection,
//! as the daemon answers), and readers for `/metrics` and JSON.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the whole response (the daemon closes the
/// connection after it).
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect::<Vec<_>>();
    let body = raw[split + 4..].to_vec();
    let reply = Reply { status, headers, body };
    let complete = reply.header("content-length").and_then(|v| v.parse::<usize>().ok());
    (complete == Some(reply.body.len())).then_some(reply)
}

/// Prometheus text exposition: series (name plus labels) to value.
pub fn parse_prom(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(series, value)| Some((series.to_string(), value.parse().ok()?)))
        .collect()
}

/// A parsed JSON value; arrays, booleans and null are parsed but not kept.
pub enum Json {
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
    Other,
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at {at}"));
        }
        Ok(value)
    }

    /// The value at a path of object keys.
    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |value, key| match value {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    pub fn num(&self, path: &[&str]) -> Option<f64> {
        match self.at(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self, path: &[&str]) -> Option<&str> {
        match self.at(path)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    let rest = &b[*at..];
    match rest.first() {
        Some(b'{') => {
            *at += 1;
            let mut members = Vec::new();
            loop {
                skip_ws(b, at);
                if b.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Json::Obj(members));
                }
                if !members.is_empty() {
                    expect(b, at, b',')?;
                    skip_ws(b, at);
                }
                let Json::Str(key) = parse_value(b, at)? else {
                    return Err(format!("object key expected at {at}"));
                };
                skip_ws(b, at);
                expect(b, at, b':')?;
                members.push((key, parse_value(b, at)?));
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut first = true;
            loop {
                skip_ws(b, at);
                if b.get(*at) == Some(&b']') {
                    *at += 1;
                    return Ok(Json::Other);
                }
                if !first {
                    expect(b, at, b',')?;
                }
                first = false;
                parse_value(b, at)?;
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut out = Vec::new();
            while let Some(&c) = b.get(*at) {
                *at += 1;
                match c {
                    b'"' => {
                        return String::from_utf8(out).map(Json::Str).map_err(|e| e.to_string())
                    }
                    b'\\' => {
                        let escaped = *b.get(*at).ok_or("truncated escape")?;
                        *at += 1;
                        match escaped {
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = b.get(*at..*at + 4).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                *at += 4;
                                let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                                out.extend_from_slice(ch.to_string().as_bytes());
                            }
                            other => out.push(other),
                        }
                    }
                    other => out.push(other),
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if rest.starts_with(b"true") => {
            *at += 4;
            Ok(Json::Other)
        }
        Some(b'f') if rest.starts_with(b"false") => {
            *at += 5;
            Ok(Json::Other)
        }
        Some(b'n') if rest.starts_with(b"null") => {
            *at += 4;
            Ok(Json::Other)
        }
        Some(_) => {
            let len = rest
                .iter()
                .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
            *at += len;
            text.parse().map(Json::Num).map_err(|_| format!("bad JSON value {text:?} at {at}"))
        }
        None => Err("unexpected end of JSON".into()),
    }
}

fn expect(b: &[u8], at: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*at) == Some(&want) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {at}", want as char))
    }
}
