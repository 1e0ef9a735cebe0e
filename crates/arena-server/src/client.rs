//! A small blocking TCP client for the daemon's JSONL protocol —
//! used by the example session and the end-to-end tests, and the
//! reference for writing clients in other languages.
//!
//! Framing: a command is one JSON object followed by one `\n`, and
//! every response line ends the same way. Send each command as a
//! single write of the object and its newline, with `TCP_NODELAY` set
//! on the socket. A command written in two parts waits on Nagle's
//! algorithm: the newline stays in the kernel until the daemon's
//! delayed ACK, about 40 ms later.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use arena_trace::{FaultEvent, JobSpec};
use serde::Value;

use crate::protocol::{fault_line, submit_line};

/// One protocol connection. Every call sends one command line and
/// blocks for the matching response line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw command line, returns the raw response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an empty read (server gone) is
    /// `UnexpectedEof`.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends a raw line and parses the response object; `Err` carries
    /// the server's `error` string when `ok` is false.
    ///
    /// # Errors
    ///
    /// I/O failures, unparseable responses and `ok:false` responses.
    pub fn call(&mut self, line: &str) -> Result<Value, String> {
        let raw = self.send_line(line).map_err(|e| e.to_string())?;
        let v: Value =
            serde_json::from_str(&raw).map_err(|e| format!("bad response `{raw}`: {e}"))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            _ => match v.get("error") {
                Some(Value::Str(msg)) => Err(msg.clone()),
                _ => Err(format!("malformed response: {raw}")),
            },
        }
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Value, String> {
        self.call(&submit_line(spec))
    }

    /// Injects a node-health event.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn fault(&mut self, fault: &FaultEvent) -> Result<Value, String> {
        self.call(&fault_line(fault))
    }

    /// Advances the virtual clock.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn advance(&mut self, to_s: f64) -> Result<Value, String> {
        self.call(&format!("{{\"cmd\":\"advance\",\"to_s\":{to_s}}}"))
    }

    /// Closes the input and drains the run.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn drain(&mut self) -> Result<Value, String> {
        self.call("{\"cmd\":\"drain\"}")
    }

    /// Runs a read-only query by its `what` name.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn query(&mut self, what: &str) -> Result<Value, String> {
        self.call(&format!("{{\"cmd\":\"query\",\"what\":\"{what}\"}}"))
    }

    /// Requests daemon shutdown.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn shutdown(&mut self) -> Result<Value, String> {
        self.call("{\"cmd\":\"shutdown\"}")
    }
}
