//! `profile_layers: true` times the engine that serves: a profiling
//! server answers bit-for-bit like a default one, and its scrape holds
//! a per-layer triage sample for every slot of the triage plan.

use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
use hotspot_geometry::BitImage;
use hotspot_serve::{Request, Response, ServeClient, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: usize = 32;
const CLIPS: u64 = 24;

/// An untrained M = 2 model, so escalated clips run the confirm pass.
fn model() -> PackedBnn {
    let mut rng = StdRng::seed_from_u64(31);
    PackedBnn::compile(&BnnResNet::new(
        &NetConfig::tiny(SIDE).with_levels(2),
        &mut rng,
    ))
}

fn clip(variant: u64) -> BitImage {
    let mut img = BitImage::new(SIDE, SIDE);
    let mut state = variant.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
    for y in 0..SIDE {
        for x in 0..SIDE {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) & 0x3 == 0 {
                img.set(x, y, true);
            }
        }
    }
    img
}

/// Sends every clip before reading any reply, so the workers form
/// multi-clip batches as well as single ones, and returns the replies
/// as `(id, hotspot, margin bits, escalated)` in id order.
fn classify_all(server: &Server) -> Vec<(u64, bool, u32, bool)> {
    let mut client = ServeClient::connect(server.addr()).unwrap();
    for id in 0..CLIPS {
        let image = clip(id);
        client
            .send(&Request::Classify {
                id,
                deadline_ms: 10_000,
                width: SIDE as u32,
                height: SIDE as u32,
                words: image.as_words().to_vec(),
                trace_id: 0,
            })
            .unwrap();
    }
    let mut replies: Vec<_> = (0..CLIPS)
        .map(|_| match client.read_response().unwrap() {
            Response::Classify {
                id,
                hotspot,
                margin,
                degraded,
                escalated,
                ..
            } => {
                assert!(!degraded, "clip {id} was served degraded");
                (id, hotspot, margin.to_bits(), escalated)
            }
            other => panic!("expected Classify, got {other:?}"),
        })
        .collect();
    replies.sort_by_key(|r| r.0);
    replies
}

#[test]
fn profiled_server_replies_bit_identically_and_exports_every_slot() {
    let plain = Server::start(ServeConfig::new(SIDE), model()).unwrap();
    let expect = classify_all(&plain);
    plain.shutdown();

    let mut config = ServeConfig::new(SIDE);
    config.profile_layers = true;
    let profiled = Server::start(config, model()).unwrap();
    let got = classify_all(&profiled);
    assert_eq!(got, expect, "profiling changed a reply");
    assert!(
        expect.iter().any(|r| r.3),
        "no clip escalated, so the confirm pass went unexercised"
    );

    let registry = profiled.metrics();
    for slot in model().plan_capped((SIDE, SIDE), 1).slot_names() {
        let labels = [("slot", slot.as_str())];
        assert!(
            registry
                .counter_with("serve_layer_triage_calls_total", &labels)
                .get()
                > 0,
            "no serve_layer_triage sample for slot {slot}"
        );
    }
    profiled.shutdown();
}
