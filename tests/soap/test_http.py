"""Unit tests for the simulated HTTP layer."""

import pytest

from repro.soap import HttpRequest, HttpResponse, HttpServer, RequestTimeout, http_request


def _run_call(env, node, address, request, timeout=1.0):
    result = {}

    def caller():
        try:
            result["response"] = yield from http_request(node, address, request, timeout=timeout)
        except RequestTimeout as error:
            result["timeout"] = error

    process = node.spawn(caller())
    env.run(until=process)
    return result


class TestRequestResponse:
    def test_simple_handler(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)
        server.route("/echo", lambda req: HttpResponse(200, body=req.body.upper()))
        result = _run_call(
            env, client_node, ("a", 80), HttpRequest("POST", "/echo", body="hello")
        )
        assert result["response"].status == 200
        assert result["response"].body == "HELLO"
        assert result["response"].ok

    def test_generator_handler(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)

        def slow(request):
            yield env.timeout(0.2)
            return HttpResponse(200, body="slow-done")

        server.route("/slow", slow)
        result = _run_call(
            env, client_node, ("a", 80), HttpRequest("GET", "/slow")
        )
        assert result["response"].body == "slow-done"
        assert env.now >= 0.2

    def test_unknown_path_404(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        HttpServer(server_node)
        result = _run_call(env, client_node, ("a", 80), HttpRequest("GET", "/nope"))
        assert result["response"].status == 404
        assert not result["response"].ok

    def test_handler_exception_500(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)

        def broken(request):
            raise RuntimeError("kaboom")

        server.route("/broken", broken)
        result = _run_call(env, client_node, ("a", 80), HttpRequest("GET", "/broken"))
        assert result["response"].status == 500
        assert "kaboom" in result["response"].body

    def test_non_response_return_500(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)
        server.route("/bad", lambda req: "not a response")
        result = _run_call(env, client_node, ("a", 80), HttpRequest("GET", "/bad"))
        assert result["response"].status == 500

    def test_concurrent_requests_do_not_mix(self, env, network):
        server_node = network.add_host("srv")
        client_node = network.add_host("cli")
        server = HttpServer(server_node)

        def echo_delay(request):
            delay = float(request.body)
            yield env.timeout(delay)
            return HttpResponse(200, body=request.body)

        server.route("/d", echo_delay)
        results = []

        def caller(delay):
            response = yield from http_request(
                client_node, ("srv", 80), HttpRequest("POST", "/d", body=str(delay)),
                timeout=5.0,
            )
            results.append((delay, response.body))

        processes = [client_node.spawn(caller(d)) for d in (0.3, 0.1, 0.2)]
        for process in processes:
            env.run(until=process)
        assert sorted(results) == [(0.1, "0.1"), (0.2, "0.2"), (0.3, "0.3")]
        assert all(str(d) == body for d, body in results)


class TestTimeouts:
    def test_crashed_server_times_out(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)
        server.route("/x", lambda req: HttpResponse(200))
        server_node.crash()
        result = _run_call(
            env, client_node, ("a", 80), HttpRequest("GET", "/x"), timeout=0.5
        )
        assert "timeout" in result
        assert result["timeout"].timeout == 0.5

    def test_slow_handler_times_out(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)

        def too_slow(request):
            yield env.timeout(10.0)
            return HttpResponse(200)

        server.route("/slow", too_slow)
        result = _run_call(
            env, client_node, ("a", 80), HttpRequest("GET", "/slow"), timeout=0.5
        )
        assert "timeout" in result

    def test_restarted_server_answers_again(self, env, network, two_hosts):
        server_node, client_node = two_hosts
        server = HttpServer(server_node)
        server.route("/x", lambda req: HttpResponse(200, body="ok"))
        server_node.crash()
        server_node.restart()
        result = _run_call(env, client_node, ("a", 80), HttpRequest("GET", "/x"))
        assert result["response"].body == "ok"


class TestSizes:
    def test_request_size_includes_body_and_headers(self):
        bare = HttpRequest("GET", "/x")
        with_body = HttpRequest("GET", "/x", body="y" * 100)
        with_headers = HttpRequest("GET", "/x", headers={"k": "v" * 50})
        assert with_body.size_bytes() > bare.size_bytes()
        assert with_headers.size_bytes() > bare.size_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "<soap:Envelope>plain ascii</soap:Envelope>" * 20,
            "café naïve über",  # Latin-1
            "学生情報 StudentInformation",  # CJK
            "ok \U0001f680\U0001f9ea done",  # astral-plane emoji
        ],
    )
    @pytest.mark.parametrize("headers", [{}, {"Content-Length": 412, "SOAPAction": "x", "n": None}])
    def test_size_is_overhead_plus_header_text_plus_utf8_body(self, body, headers):
        """The formula every committed ``bytes_per_req`` was measured with."""
        expected = (
            128
            + sum(len(k) + len(str(v)) for k, v in headers.items())
            + len(body.encode())
        )
        assert HttpRequest("POST", "/p", body=body, headers=headers).size_bytes() == expected
        assert HttpResponse(200, body=body, headers=headers).size_bytes() == expected
