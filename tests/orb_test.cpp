// Tests for typed Values, wire messages, the loopback transport and
// end-to-end dynamic invocation through the Orb (local, loopback and TCP).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/tcp.hpp"
#include "orb/transport.hpp"
#include "orb/value.hpp"

namespace clc::orb {
namespace {

std::shared_ptr<idl::InterfaceRepository> make_repo(const char* extra = "") {
  auto repo = std::make_shared<idl::InterfaceRepository>();
  if (*extra != '\0') {
    auto r = repo->register_idl(extra);
    EXPECT_TRUE(r.ok()) << r.error().to_string();
  }
  return repo;
}

// ---------------------------------------------------------------- values

const char* kShapesIdl = R"(
module t {
  struct Point { double x; double y; };
  struct Shape { string name; sequence<Point> outline; };
  enum Mode { off, slow, fast };
  typedef sequence<long> Longs;
  exception Overload { string reason; long load; };
  interface Calc {
    long add(in long a, in long b);
    double mean(in Longs values) raises (Overload);
    string concat(in string a, inout string b, out long total);
    oneway void fire(in string event);
    Point centroid(in Shape s);
    any echo(in any v);
    readonly attribute string version;
  };
};
)";

TEST(Values, StructRoundTrip) {
  auto repo = make_repo(kShapesIdl);
  Value v = make_struct(
      "t::Shape",
      {{"name", Value(std::string("tri"))},
       {"outline",
        Value(Value::Sequence{
            make_struct("t::Point", {{"x", 0.0}, {"y", 0.0}}),
            make_struct("t::Point", {{"x", 1.0}, {"y", 2.0}})})}});
  CdrWriter w;
  w.begin_encapsulation();
  ASSERT_TRUE(marshal_value(v, idl::TypeRef::named(idl::TypeKind::tk_struct,
                                                   "t::Shape"),
                            *repo, w)
                  .ok());
  CdrReader r(w.data());
  ASSERT_TRUE(r.begin_encapsulation().ok());
  auto back = unmarshal_value(
      idl::TypeRef::named(idl::TypeKind::tk_struct, "t::Shape"), *repo, r);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(*back, v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Values, EnumRoundTripAndValidation) {
  auto repo = make_repo(kShapesIdl);
  auto v = make_enum("t::Mode", "fast", *repo);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as<EnumValue>().index, 2u);
  EXPECT_FALSE(make_enum("t::Mode", "warp", *repo).ok());
  EXPECT_FALSE(make_enum("t::Missing", "x", *repo).ok());

  const auto type = idl::TypeRef::named(idl::TypeKind::tk_enum, "t::Mode");
  CdrWriter w;
  ASSERT_TRUE(marshal_value(*v, type, *repo, w).ok());
  CdrReader r(w.data());
  auto back = unmarshal_value(type, *repo, r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *v);
}

TEST(Values, EnumOrdinalOutOfRangeRejectedOnWire) {
  auto repo = make_repo(kShapesIdl);
  CdrWriter w;
  w.write_ulong(99);
  CdrReader r(w.data());
  auto back = unmarshal_value(
      idl::TypeRef::named(idl::TypeKind::tk_enum, "t::Mode"), *repo, r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, Errc::corrupt_data);
}

TEST(Values, TypedefResolvedThroughRepository) {
  auto repo = make_repo(kShapesIdl);
  const auto type = idl::TypeRef::named(idl::TypeKind::tk_alias, "t::Longs");
  Value v = Value::Sequence{Value(std::int32_t{1}), Value(std::int32_t{2})};
  CdrWriter w;
  ASSERT_TRUE(marshal_value(v, type, *repo, w).ok());
  CdrReader r(w.data());
  auto back = unmarshal_value(type, *repo, r);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->is<Value::Sequence>());
  EXPECT_EQ(back->as<Value::Sequence>().size(), 2u);
}

TEST(Values, TypeMismatchRejected) {
  auto repo = make_repo(kShapesIdl);
  CdrWriter w;
  // string value against long type
  auto r1 = marshal_value(Value("oops"),
                          idl::TypeRef::primitive(idl::TypeKind::tk_long),
                          *repo, w);
  EXPECT_FALSE(r1.ok());
  // wrong field name for struct
  auto r2 = marshal_value(
      make_struct("t::Point", {{"x", 1.0}, {"z", 2.0}}),
      idl::TypeRef::named(idl::TypeKind::tk_struct, "t::Point"), *repo, w);
  EXPECT_FALSE(r2.ok());
  // missing field
  auto r3 = marshal_value(
      make_struct("t::Point", {{"x", 1.0}}),
      idl::TypeRef::named(idl::TypeKind::tk_struct, "t::Point"), *repo, w);
  EXPECT_FALSE(r3.ok());
}

TEST(Values, BoundedSequenceEnforced) {
  auto repo = make_repo("typedef sequence<long, 2> Two;");
  const auto type = idl::TypeRef::named(idl::TypeKind::tk_alias, "Two");
  Value ok_value = Value::Sequence{Value(std::int32_t{1}), Value(std::int32_t{2})};
  Value too_long =
      Value::Sequence{Value(std::int32_t{1}), Value(std::int32_t{2}), Value(std::int32_t{3})};
  CdrWriter w;
  EXPECT_TRUE(marshal_value(ok_value, type, *repo, w).ok());
  EXPECT_FALSE(marshal_value(too_long, type, *repo, w).ok());
}

TEST(Values, HostileSequenceLengthRejected) {
  auto repo = make_repo(kShapesIdl);
  CdrWriter w;
  w.write_ulong(0xffffffffu);  // claims 4G elements, no payload
  CdrReader r(w.data());
  auto back = unmarshal_value(
      idl::TypeRef::sequence(idl::TypeRef::primitive(idl::TypeKind::tk_long)),
      *repo, r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, Errc::corrupt_data);
}

TEST(Values, AnyCarriesTypeAndValue) {
  auto repo = make_repo(kShapesIdl);
  AnyValue any;
  any.type = idl::TypeRef::named(idl::TypeKind::tk_struct, "t::Point");
  any.value = std::make_shared<Value>(
      make_struct("t::Point", {{"x", 4.0}, {"y", 5.0}}));
  const auto type = idl::TypeRef::primitive(idl::TypeKind::tk_any);
  CdrWriter w;
  ASSERT_TRUE(marshal_value(Value(any), type, *repo, w).ok());
  CdrReader r(w.data());
  auto back = unmarshal_value(type, *repo, r);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  const auto& av = back->as<AnyValue>();
  EXPECT_EQ(av.type.name, "t::Point");
  EXPECT_EQ(*av.value->as<StructValue>().field("y"), Value(5.0));
}

TEST(Values, ObjectRefRoundTrip) {
  auto repo = make_repo(kShapesIdl);
  ObjectRef ref;
  ref.node = NodeId{7};
  ref.key = Uuid{123, 456};
  ref.interface_name = "t::Calc";
  ref.endpoint = "loop:1";
  const auto type = idl::TypeRef::named(idl::TypeKind::tk_objref, "t::Calc");
  CdrWriter w;
  ASSERT_TRUE(marshal_value(Value(ref), type, *repo, w).ok());
  CdrReader r(w.data());
  auto back = unmarshal_value(type, *repo, r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->as<ObjectRef>(), ref);
}

TEST(Values, ToStringReadable) {
  Value v = make_struct("P", {{"x", 1.5}, {"s", Value("hi")}});
  EXPECT_EQ(v.to_string(), "P{x=1.5, s=\"hi\"}");
  EXPECT_EQ(Value(Value::Sequence{Value(true), Value(false)}).to_string(),
            "[true, false]");
  EXPECT_EQ(Value().to_string(), "void");
}

TEST(Values, NumericWidening) {
  EXPECT_EQ(*Value(std::int16_t{-3}).to_int(), -3);
  EXPECT_EQ(*Value(std::uint8_t{200}).to_int(), 200);
  EXPECT_EQ(*Value(true).to_int(), 1);
  EXPECT_DOUBLE_EQ(*Value(std::int32_t{4}).to_double(), 4.0);
  EXPECT_DOUBLE_EQ(*Value(2.5f).to_double(), 2.5);
  EXPECT_FALSE(Value("nope").to_int().ok());
}

// ---------------------------------------------------------------- messages

TEST(Messages, RequestRoundTrip) {
  RequestMessage m;
  m.request_id = RequestId{42};
  m.object_key = Uuid{1, 2};
  m.interface_name = "t::Calc";
  m.operation = "add";
  m.response_expected = true;
  m.args = {9, 8, 7};
  const Bytes frame = m.encode();

  CdrReader r(frame);
  auto type = decode_frame_header(r);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MessageType::request);
  auto back = RequestMessage::decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, m.request_id);
  EXPECT_EQ(back->object_key, m.object_key);
  EXPECT_EQ(back->operation, "add");
  EXPECT_EQ(back->args, m.args);
}

TEST(Messages, ReplyRoundTrip) {
  ReplyMessage m;
  m.request_id = RequestId{43};
  m.status = ReplyStatus::user_exception;
  m.exception_id = "t::Overload";
  m.payload = {1, 2};
  const Bytes frame = m.encode();
  CdrReader r(frame);
  ASSERT_TRUE(decode_frame_header(r).ok());
  auto back = ReplyMessage::decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, ReplyStatus::user_exception);
  EXPECT_EQ(back->exception_id, "t::Overload");
}

TEST(Messages, BadMagicRejected) {
  Bytes junk = {'X', 'X', 'X', 'X', 1, 0, 1};
  CdrReader r(junk);
  EXPECT_FALSE(decode_frame_header(r).ok());
}

TEST(Messages, ControlFrames) {
  const Bytes frame = encode_control(MessageType::ping);
  CdrReader r(frame);
  auto type = decode_frame_header(r);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MessageType::ping);
}

// ---------------------------------------------------------------- loopback

TEST(Loopback, RegisterDetachReattach) {
  LoopbackNetwork net;
  auto ep = net.register_endpoint([](BytesView) { return Bytes{1}; });
  // Replies from a live endpoint and unreachable detached ones are part of
  // the transport contract (transport_contract_test.cpp).
  net.detach(ep);
  ASSERT_TRUE(net.reattach(ep, [](BytesView) { return Bytes{2}; }).ok());
  EXPECT_EQ(*roundtrip(net, ep, Bytes{0}), Bytes{2});
  EXPECT_FALSE(net.reattach(ep, [](BytesView) { return Bytes{}; }).ok());
}

TEST(Loopback, StatsAccumulate) {
  LoopbackNetwork net;
  auto ep = net.register_endpoint([](BytesView) { return Bytes{9, 9}; });
  net.reset_stats();
  ASSERT_TRUE(roundtrip(net, ep, Bytes{1, 2, 3}).ok());
  auto s = net.stats();
  EXPECT_EQ(s.messages, 2u);  // request + reply
  EXPECT_EQ(s.bytes, 5u);
}

TEST(Loopback, DropInjection) {
  LoopbackNetwork net;
  auto ep = net.register_endpoint([](BytesView) { return Bytes{1}; });
  net.set_config({.latency = 0, .bytes_per_second = 0, .drop_probability = 1.0});
  EXPECT_FALSE(roundtrip(net, ep, Bytes{0}).ok());
  EXPECT_GT(net.stats().dropped, 0u);
  // One-way drops are silent.
  std::optional<Result<Bytes>> sent;
  net.submit(
      ep, Bytes{0}, [&sent](Result<Bytes> r) { sent = std::move(r); },
      Delivery::oneway);
  ASSERT_TRUE(sent.has_value());
  EXPECT_TRUE(sent->ok());
}

// ---------------------------------------------------------------- orb e2e

/// Servant used across the invocation tests.
std::shared_ptr<DynamicServant> make_calc_servant() {
  auto servant = std::make_shared<DynamicServant>("t::Calc");
  servant->on("add", [](ServerRequest& req) -> Result<void> {
    const auto a = req.arg(0).to_int();
    const auto b = req.arg(1).to_int();
    if (!a || !b) return Error{Errc::invalid_argument, "bad args"};
    req.set_result(Value(static_cast<std::int32_t>(*a + *b)));
    return {};
  });
  servant->on("mean", [](ServerRequest& req) -> Result<void> {
    const auto& seq = req.arg(0).as<Value::Sequence>();
    if (seq.size() > 3) {
      req.raise(UserException{
          "t::Overload",
          make_struct("t::Overload",
                      {{"reason", Value("too many")},
                       {"load", Value(static_cast<std::int32_t>(seq.size()))}})});
      return {};
    }
    double sum = 0;
    for (const auto& v : seq) sum += static_cast<double>(*v.to_int());
    req.set_result(Value(seq.empty() ? 0.0 : sum / static_cast<double>(seq.size())));
    return {};
  });
  servant->on("concat", [](ServerRequest& req) -> Result<void> {
    const auto a = req.arg(0).as<std::string>();
    const auto b = req.arg(1).as<std::string>();
    req.set_result(Value(a + b));
    req.args()[1] = Value(b + "'");                               // inout
    req.args()[2] = Value(static_cast<std::int32_t>(a.size() + b.size()));  // out
    return {};
  });
  servant->on("fire", [](ServerRequest&) -> Result<void> { return {}; });
  servant->on("_get_version", [](ServerRequest& req) -> Result<void> {
    req.set_result(Value("1.2.3"));
    return {};
  });
  servant->on("echo", [](ServerRequest& req) -> Result<void> {
    req.set_result(req.arg(0));
    return {};
  });
  return servant;
}

struct OrbPair {
  std::shared_ptr<idl::InterfaceRepository> repo;
  std::shared_ptr<LoopbackNetwork> net;
  std::unique_ptr<Orb> server;
  std::unique_ptr<Orb> client;
  ObjectRef calc;
};

OrbPair make_orb_pair() {
  OrbPair p;
  p.repo = make_repo(kShapesIdl);
  p.net = std::make_shared<LoopbackNetwork>();
  p.server = std::make_unique<Orb>(NodeId{1}, p.repo);
  p.client = std::make_unique<Orb>(NodeId{2}, p.repo);
  auto* server = p.server.get();
  p.server->set_endpoint(p.net->register_endpoint(
      [server](BytesView frame) { return server->handle_frame(frame); }));
  auto* client = p.client.get();
  p.client->set_endpoint(p.net->register_endpoint(
      [client](BytesView frame) { return client->handle_frame(frame); }));
  p.server->add_transport("loop", p.net);
  p.client->add_transport("loop", p.net);
  p.calc = p.server->activate(make_calc_servant());
  return p;
}

TEST(OrbInvoke, RemoteCallReturnsResult) {
  auto p = make_orb_pair();
  auto r = p.client->call(p.calc, "add",
                          {Value(std::int32_t{20}), Value(std::int32_t{22})});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, Value(std::int32_t{42}));
}

TEST(OrbInvoke, LocalCallFastPath) {
  auto p = make_orb_pair();
  auto r = p.server->call(p.calc, "add",
                          {Value(std::int32_t{1}), Value(std::int32_t{2})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value(std::int32_t{3}));
  EXPECT_EQ(p.server->stats().local_dispatches, 1u);
}

TEST(OrbInvoke, OutAndInoutParams) {
  auto p = make_orb_pair();
  std::vector<Value> args = {Value("foo"), Value("bar"), Value()};
  auto out = p.client->invoke(p.calc, "concat", args);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_FALSE(out->exception.has_value());
  EXPECT_EQ(out->result, Value("foobar"));
  EXPECT_EQ(args[1], Value("bar'"));
  EXPECT_EQ(args[2], Value(std::int32_t{6}));
}

TEST(OrbInvoke, UserExceptionCarriesPayload) {
  auto p = make_orb_pair();
  std::vector<Value> args = {Value(Value::Sequence{
      Value(std::int32_t{1}), Value(std::int32_t{2}), Value(std::int32_t{3}),
      Value(std::int32_t{4})})};
  auto out = p.client->invoke(p.calc, "mean", args);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  ASSERT_TRUE(out->exception.has_value());
  EXPECT_EQ(out->exception->type_name, "t::Overload");
  EXPECT_EQ(out->exception->field_text("reason"), "too many");
  // call() surfaces it as a remote_exception error.
  auto c = p.client->call(
      p.calc, "mean",
      {Value(Value::Sequence{Value(std::int32_t{1}), Value(std::int32_t{2}),
                             Value(std::int32_t{3}), Value(std::int32_t{4})})});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error().code, Errc::remote_exception);
}

TEST(OrbInvoke, NoExceptionPathOfRaisingOp) {
  auto p = make_orb_pair();
  auto r = p.client->call(
      p.calc, "mean",
      {Value(Value::Sequence{Value(std::int32_t{2}), Value(std::int32_t{4})})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value(3.0));
}

TEST(OrbInvoke, AttributeAccessor) {
  auto p = make_orb_pair();
  auto r = p.client->call(p.calc, "_get_version");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value("1.2.3"));
}

TEST(OrbInvoke, OnewayDoesNotWait) {
  auto p = make_orb_pair();
  auto r = p.client->send(p.calc, "fire", {Value("evt")});
  EXPECT_TRUE(r.ok());
}

TEST(OrbInvoke, AnyEchoes) {
  auto p = make_orb_pair();
  AnyValue any;
  any.type = idl::TypeRef::primitive(idl::TypeKind::tk_string);
  any.value = std::make_shared<Value>(Value("inside"));
  auto r = p.client->call(p.calc, "echo", {Value(any)});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r->as<AnyValue>().value, Value("inside"));
}

TEST(OrbInvoke, ErrorsSurfaceAsSystemExceptions) {
  auto p = make_orb_pair();
  // Unknown operation at the IDL level fails client-side.
  auto bad_op = p.client->call(p.calc, "nonexistent");
  EXPECT_FALSE(bad_op.ok());
  // Wrong argument count fails client-side.
  auto bad_argc = p.client->call(p.calc, "add", {Value(std::int32_t{1})});
  EXPECT_FALSE(bad_argc.ok());
  // Stale object key -> object_not_found from the server.
  ObjectRef stale = p.calc;
  stale.key = Uuid{9, 9};
  auto r = p.client->call(stale, "add",
                          {Value(std::int32_t{1}), Value(std::int32_t{2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  // Nil ref rejected.
  EXPECT_FALSE(p.client->call(kNilRef, "add").ok());
}

TEST(OrbInvoke, DeactivateStopsDispatch) {
  auto p = make_orb_pair();
  ASSERT_TRUE(p.server->deactivate(p.calc.key).ok());
  EXPECT_FALSE(p.server->deactivate(p.calc.key).ok());
  auto r = p.client->call(p.calc, "add",
                          {Value(std::int32_t{1}), Value(std::int32_t{2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(p.server->active_count(), 0u);
}

TEST(OrbInvoke, UndeclaredUserExceptionBecomesSystemException) {
  auto p = make_orb_pair();
  auto rogue = std::make_shared<DynamicServant>("t::Calc");
  rogue->on("add", [](ServerRequest& req) -> Result<void> {
    req.raise(UserException{"t::Overload",
                            make_struct("t::Overload",
                                        {{"reason", Value("rogue")},
                                         {"load", Value(std::int32_t{1})}})});
    return {};
  });
  auto ref = p.server->activate(rogue);
  auto r = p.client->call(ref, "add",
                          {Value(std::int32_t{1}), Value(std::int32_t{2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::remote_exception);
}

TEST(OrbInvoke, PingPong) {
  auto p = make_orb_pair();
  EXPECT_TRUE(p.client->ping(p.calc.endpoint).ok());
  p.net->detach(p.calc.endpoint);
  EXPECT_FALSE(p.client->ping(p.calc.endpoint).ok());
}

TEST(OrbInvoke, BaseInterfaceViewDispatchesDerived) {
  auto repo = make_repo(
      "interface Base { long f(); };"
      "interface Impl : Base { long g(); };");
  Orb orb(NodeId{1}, repo);
  auto servant = std::make_shared<DynamicServant>("Impl");
  servant->on("f", [](ServerRequest& req) -> Result<void> {
    req.set_result(Value(std::int32_t{10}));
    return {};
  });
  auto ref = orb.activate(servant);
  // Narrow the reference to the base interface; dispatch must still work.
  ObjectRef base_view = ref;
  base_view.interface_name = "Base";
  auto r = orb.call(base_view, "f");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, Value(std::int32_t{10}));
}

// ---------------------------------------------------------------- tcp

TEST(Tcp, RoundTripOverRealSockets) {
  auto repo = make_repo(kShapesIdl);
  Orb server(NodeId{1}, repo);
  TcpServer listener;
  auto ep = listener.start(
      [&server](BytesView frame) { return server.handle_frame(frame); });
  ASSERT_TRUE(ep.ok()) << ep.error().to_string();
  server.set_endpoint(*ep);
  auto calc = server.activate(make_calc_servant());

  Orb client(NodeId{2}, repo);
  client.set_endpoint("tcp:127.0.0.1:0");  // not serving, just distinct
  client.add_transport("tcp", std::make_shared<TcpTransport>());

  auto r = client.call(calc, "add",
                       {Value(std::int32_t{40}), Value(std::int32_t{2})});
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, Value(std::int32_t{42}));

  // Several sequential calls reuse the pooled connection.
  for (int i = 0; i < 20; ++i) {
    auto rr = client.call(calc, "add",
                          {Value(std::int32_t{i}), Value(std::int32_t{i})});
    ASSERT_TRUE(rr.ok());
    EXPECT_EQ(*rr, Value(std::int32_t{2 * i}));
  }
  // Oneway over TCP.
  EXPECT_TRUE(client.send(calc, "fire", {Value("x")}).ok());
  listener.stop();
  auto after = client.call(calc, "add",
                           {Value(std::int32_t{1}), Value(std::int32_t{1})});
  EXPECT_FALSE(after.ok());
}

TEST(Tcp, ConnectionRefusedReported) {
  TcpTransport t;
  auto r = roundtrip(t, "tcp:127.0.0.1:1", Bytes{1});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unreachable);
  EXPECT_FALSE(roundtrip(t, "tcp:bad", Bytes{1}).ok());
  EXPECT_FALSE(roundtrip(t, "http:x:80", Bytes{1}).ok());
}

}  // namespace
}  // namespace clc::orb
