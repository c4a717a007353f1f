from __future__ import annotations

import os
import socket
import threading

import pytest
import requests

from helpers import make_world
from wumpusbench import (
    Action,
    ActionParseError,
    Cell,
    ChatClient,
    ChatMessage,
    EpisodeProtocolFailure,
    LlmAgent,
    MECHANISM_COS,
    MECHANISM_COT,
    MockChatServer,
    MockReply,
    ProtocolError,
    TransportError,
    build_observation,
    build_prompt,
    default_system_prompt,
    parse_cos_response,
)
from wumpusbench.llm import run_cos_round


def fresh_obs(n=3):
    return build_observation(make_world(n=n, gold=(n, n)))


COS_REPLY = (
    "Analysis: stench at (1,2) and (2,1) pins the wumpus to the diagonal.\n"
    'Guess: {"wumpus": [[2,2]], "pits": []}\n'
    "Action: <shootright>"
)


# ---------------------------------------------------------------------------
# Client transport


def test_client_returns_content_and_usage():
    with MockChatServer([MockReply("ok", 10, 5)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        content, usage = client.complete([ChatMessage("user", "hi")])
    assert content == "ok"
    assert usage.prompt_tokens == 10
    assert usage.completion_tokens == 5
    assert usage.total_tokens == 15
    assert usage.latency >= 0


def test_client_errors_after_script_exhausted():
    with MockChatServer([MockReply("only one", 1, 1)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=1, backoff=0.01)
        client.complete([ChatMessage("user", "hi")])
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "hi")])


def test_client_transport_error_on_unreachable_endpoint():
    client = ChatClient(
        "http://127.0.0.1:1/nothing", "test-model", max_retries=1, backoff=0.01
    )
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])


def test_client_rejects_malformed_body():
    import http.server
    import json
    import threading as _threading

    class BadHandler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            raw = json.dumps({"weird": True}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), BadHandler)
    thread = _threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/"
        client = ChatClient(url, "test-model", max_retries=0)
        with pytest.raises(ProtocolError):
            client.complete([ChatMessage("user", "hi")])
    finally:
        server.shutdown()
        server.server_close()


def test_concurrent_calls_get_independent_usage():
    script = [MockReply("a", 11, 1), MockReply("b", 22, 2)]
    results = []
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)

        def call():
            results.append(client.complete([ChatMessage("user", "hi")]))

        threads = [threading.Thread(target=call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    got = {(content, usage.prompt_tokens, usage.completion_tokens) for content, usage in results}
    assert got == {("a", 11, 1), ("b", 22, 2)}


def test_mock_validates_requests():
    import requests

    with MockChatServer([MockReply("x")]) as server:
        bad = requests.post(server.url, data=b"not json")
        assert bad.status_code == 400
        bad = requests.post(server.url, json={"messages": []})
        assert bad.status_code == 400


def test_mock_stop_closes_kept_alive_connections():
    before = set(threading.enumerate())
    server = MockChatServer([MockReply("a"), MockReply("b")]).start()
    client = ChatClient(server.url, "test-model", max_retries=0)
    client.complete([ChatMessage("user", "hi")])
    server.stop()
    assert [t for t in threading.enumerate() if t not in before] == []
    # The pooled connection is gone with its handler: the second scripted
    # reply is never served.
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])
    assert len(server.requests) == 1


def test_client_reuses_one_connection_to_the_mock():
    with MockChatServer([MockReply(str(i)) for i in range(5)]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        for _ in range(5):
            client.complete([ChatMessage("user", "hi")])
    assert len(server.peers) == 5
    assert len(set(server.peers)) == 1


class CountingPostSession(requests.Session):
    def __init__(self):
        super().__init__()
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return super().post(*args, **kwargs)


class RecordingSession(requests.Session):
    """Keeps what would be sent instead of sending it."""

    def send(self, request, **kwargs):
        self.sent = (request, kwargs)
        raise requests.ConnectionError("not sent")


@pytest.fixture
def clean_environment(monkeypatch):
    """No proxy, CA bundle, netrc or API key settings from the outside."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name in (
            "REQUESTS_CA_BUNDLE",
            "CURL_CA_BUNDLE",
            "WUMPUSBENCH_API_KEY",
            "OPENAI_API_KEY",
        ):
            monkeypatch.delenv(name)
    monkeypatch.setenv("NETRC", os.devnull)
    return monkeypatch


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_client_reads_proxies_from_the_environment_when_built(clean_environment):
    clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
    with MockChatServer([MockReply("ok")]) as server:
        session = CountingPostSession()
        client = ChatClient(
            server.url, "test-model", max_retries=1, backoff=0.01, session=session
        )
        with pytest.raises(TransportError):
            client.complete([ChatMessage("user", "hi")])
        assert session.posts == 2  # one per attempt
        # A second client on the same session reads the environment too.
        with pytest.raises(TransportError):
            ChatClient(server.url, "m", max_retries=0, session=session).complete(
                [ChatMessage("user", "hi")]
            )
        assert session.posts == 3
        assert server.requests == []

        clean_environment.setenv("NO_PROXY", "127.0.0.1")
        session = CountingPostSession()
        client = ChatClient(server.url, "test-model", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"
        assert session.posts == 1


def test_client_ignores_environment_changes_after_it_is_built(clean_environment):
    with MockChatServer([MockReply("ok")]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0)
        clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"


def test_client_keeps_a_session_that_does_not_trust_the_environment(clean_environment):
    clean_environment.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
    session = requests.Session()
    session.trust_env = False
    with MockChatServer([MockReply("ok")]) as server:
        client = ChatClient(server.url, "test-model", max_retries=0, session=session)
        assert client.complete([ChatMessage("user", "hi")])[0] == "ok"


def test_client_sends_what_a_default_session_would(clean_environment, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine api.example login user password secret\n")
    clean_environment.setenv("NETRC", str(netrc))
    clean_environment.setenv("HTTPS_PROXY", "http://127.0.0.1:3128")
    clean_environment.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
    url = "https://api.example/v1/chat/completions"
    client_session = RecordingSession()
    client = ChatClient(url, "m", max_retries=0, timeout=7.0, session=client_session)
    with pytest.raises(TransportError):
        client.complete([ChatMessage("user", "hi")])
    reference = RecordingSession()
    with pytest.raises(requests.ConnectionError):
        reference.post(
            url,
            json={
                "model": "m",
                "messages": [{"role": "user", "content": "hi"}],
                "temperature": 0.0,
            },
            headers={"Content-Type": "application/json"},
            timeout=7.0,
        )
    (sent, sent_kwargs), (expected, expected_kwargs) = client_session.sent, reference.sent
    assert sent_kwargs == expected_kwargs
    assert expected_kwargs["proxies"] == {"https": "http://127.0.0.1:3128"}
    assert expected_kwargs["verify"] == str(tmp_path / "ca.pem")
    assert sent.headers == expected.headers
    assert expected.headers["Authorization"].startswith("Basic ")
    assert sent.body == expected.body


# ---------------------------------------------------------------------------
# Prompt assembly


def test_prompt_is_system_plus_user_with_observation():
    obs = fresh_obs()
    messages = build_prompt(MECHANISM_COS, obs, None, "SYSTEM")
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[0].content == "SYSTEM"
    assert '"number of Wumpus"' in messages[1].content
    assert "Previous guess" not in messages[1].content


def test_cos_prompt_carries_previous_guess_verbatim():
    obs = fresh_obs()
    guess = '{"wumpus": [[2,2]], "pits": [[3 ,1]]}'
    messages = build_prompt(MECHANISM_COS, obs, guess, "SYSTEM")
    assert guess in messages[1].content
    assert "Previous guess" in messages[1].content


def test_cot_prompt_never_carries_a_guess():
    obs = fresh_obs()
    messages = build_prompt(MECHANISM_COT, obs, '{"wumpus": []}', "SYSTEM")
    assert "Previous guess" not in messages[1].content


def test_default_system_prompts_document_grammar_and_format():
    cos = default_system_prompt(MECHANISM_COS, 3)
    assert "move to position (x,y)" in cos
    assert "<shootup>" in cos and "<exit>" in cos
    assert "Analysis:" in cos and "Guess:" in cos and "Action:" in cos
    assert "3x3" in cos
    cot = default_system_prompt(MECHANISM_COT, 4)
    assert "Guess:" not in cot
    assert "4x4" in cot


# ---------------------------------------------------------------------------
# Response parsing


def test_parse_cos_response_extracts_three_sections():
    turn = parse_cos_response(COS_REPLY, grid_size=3)
    assert "diagonal" in turn.analysis
    assert turn.guess.wumpus == (Cell(2, 2),)
    assert turn.guess.pits == ()
    assert turn.action == Action.shoot("right")
    assert not turn.malformed_guess
    assert turn.guess_raw == '{"wumpus": [[2,2]], "pits": []}'


def test_parse_cos_response_tolerates_tuple_syntax():
    text = 'Analysis: x\nGuess: {"wumpus": [(2,2)], "pits": [(3,1)]}\nAction: <exit>'
    turn = parse_cos_response(text, grid_size=3)
    assert turn.guess.wumpus == (Cell(2, 2),)
    assert turn.guess.pits == (Cell(3, 1),)


def test_parse_cos_response_missing_guess_degrades():
    text = "Analysis: just exploring.\nAction: move to position (2,1)"
    turn = parse_cos_response(text, grid_size=3)
    assert turn.malformed_guess
    assert turn.guess.wumpus == () and turn.guess.pits == ()
    assert turn.action == Action.move(2, 1)


def test_parse_cos_response_rejects_out_of_grid_guess():
    text = 'Analysis: x\nGuess: {"wumpus": [[9,9]], "pits": []}\nAction: <exit>'
    turn = parse_cos_response(text, grid_size=3)
    assert turn.malformed_guess
    assert turn.guess_raw is None


def test_a_too_deeply_nested_guess_is_malformed():
    # json.loads raises RecursionError on this guess, not ValueError.
    text = 'Analysis: x\nGuess: {"wumpus": ' + "[" * 100_000 + "}\nAction: <exit>"
    turn = parse_cos_response(text, grid_size=3)
    assert turn.malformed_guess and turn.guess_raw is None
    with MockChatServer([MockReply(text, 5, 5)]) as server:
        agent = LlmAgent(ChatClient(server.url, "m", max_retries=0), 3)
        decision = agent.decide(fresh_obs())
    assert decision.action == Action.exit()
    assert decision.flags == ["malformed-guess"]


def test_parse_cos_response_without_action_raises():
    with pytest.raises(ActionParseError):
        parse_cos_response('Analysis: hmm\nGuess: {"wumpus": []}\n', grid_size=3)


def test_action_section_wins_over_candidates_in_analysis():
    text = (
        "Analysis: I could move to position (1,2) but the breeze worries me.\n"
        'Guess: {"wumpus": [], "pits": [[2,2]]}\n'
        "Action: move to position (2,1)"
    )
    assert parse_cos_response(text, grid_size=3).action == Action.move(2, 1)


# ---------------------------------------------------------------------------
# Round orchestration and the agent


def test_run_cos_round_retries_until_parseable():
    script = [
        MockReply("no action here", 5, 5),
        MockReply(COS_REPLY.replace("<shootright>", "move to position (9,9)"), 5, 5),
        MockReply(COS_REPLY, 5, 5),
    ]
    obs = fresh_obs()
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "m", max_retries=0)
        turn, calls, flags = run_cos_round(
            client,
            obs,
            None,
            system_prompt="S",
            grid_size=3,
            max_parse_retries=3,
        )
    assert turn.action == Action.shoot("right")
    assert len(calls) == 3
    assert flags.count("unparseable-action") == 1
    assert flags.count("illegal-action") == 1


def test_run_cos_round_exhaustion_is_protocol_failure():
    script = [MockReply("still nothing", 1, 1)] * 3
    obs = fresh_obs()
    with MockChatServer(script) as server:
        client = ChatClient(server.url, "m", max_retries=0)
        with pytest.raises(EpisodeProtocolFailure) as excinfo:
            run_cos_round(
                client,
                obs,
                None,
                system_prompt="S",
                grid_size=3,
                max_parse_retries=2,
            )
    assert len(excinfo.value.calls) == 3


def test_run_cos_round_endpoint_error_keeps_the_calls_made():
    # The retry after the unparseable reply finds the script exhausted.
    with MockChatServer([MockReply("no action here", 5, 5)]) as server:
        client = ChatClient(server.url, "m", max_retries=0)
        with pytest.raises(EpisodeProtocolFailure) as excinfo:
            run_cos_round(client, fresh_obs(), None, system_prompt="S", grid_size=3)
    assert str(excinfo.value).startswith("TransportError: ")
    assert [c.response for c in excinfo.value.calls] == ["no action here"]


def test_llm_agent_propagates_guess_between_rounds():
    replies = [
        MockReply(
            'Analysis: a\nGuess: {"wumpus": [[2,2]], "pits": []}\n'
            "Action: move to position (2,1)",
            7,
            3,
        ),
        MockReply(
            'Analysis: b\nGuess: {"wumpus": [[2,2]], "pits": [[3,1]]}\n'
            "Action: <exit>",
            8,
            4,
        ),
    ]
    world = make_world(n=3, wumpus=(3, 3), gold=(3, 1))
    with MockChatServer(replies) as server:
        agent = LlmAgent(ChatClient(server.url, "m", max_retries=0), 3)
        first = agent.decide(build_observation(world))
        assert first.guess_raw == '{"wumpus": [[2,2]], "pits": []}'
        from wumpusbench import apply_action

        apply_action(world, first.action)
        second = agent.decide(build_observation(world))
        round2_user = server.requests[1]["messages"][1]["content"]
    assert first.guess_raw in round2_user
    assert second.action == Action.exit()


def test_cot_agent_accepts_plain_reasoning():
    world = make_world(n=3, gold=(3, 3))
    with MockChatServer([MockReply("thinking... move to position (1,2)", 5, 5)]) as server:
        agent = LlmAgent(
            ChatClient(server.url, "m", max_retries=0), 3, mechanism=MECHANISM_COT
        )
        decision = agent.decide(build_observation(world))
    assert decision.action == Action.move(1, 2)
    assert decision.provenance == "model"
    assert decision.guess == {"wumpus": [], "pits": []}
