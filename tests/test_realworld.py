"""Parser robustness on realistic modern and legacy Solidity."""

from __future__ import annotations

from conftest import metrics_for
from solmetrics.lexer import slice_span, tokenize
from solmetrics.parser import parse_source

MODERN = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.19;

import "./IERC20.sol";
import {Context} from "./utils/Context.sol";

error InsufficientBalance(uint256 available, uint256 required);

uint256 constant MAX_FEE = 500;

interface IVault {
    function deposit(uint256) external payable returns (bool);
    function shares(address owner) external view returns (uint256);
}

library SafeOps {
    using SafeOps for uint256;

    function clamp(uint256 v, uint256 hi) internal pure returns (uint256) {
        return v > hi ? hi : v;
    }
}

abstract contract Pausable {
    bool private paused;

    modifier whenActive() {
        require(!paused, "paused");
        _;
    }

    function pause() public virtual {
        paused = true;
    }
}

contract Treasury is Pausable, IVault {
    using SafeOps for uint256;

    struct Position {
        uint128 amount;
        uint64 openedAt;
        mapping(address => bool) approvals;
    }

    enum Phase { Setup, Active, Closed }

    event Deposit(address indexed from, uint256 amount);
    event Sweep(address indexed to, uint256 amount, bytes data);

    mapping(address => uint256) private balances;
    mapping(address => mapping(address => uint256)) public allowance;
    address payable public immutable treasurer;
    uint256[] internal checkpoints;
    bytes32 public constant ROLE = keccak256("TREASURER");
    function(uint256) internal pure returns (uint256) transformer;

    constructor(address payable boss) payable {
        treasurer = boss;
    }

    receive() external payable {
        balances[msg.sender] += msg.value;
    }

    fallback(bytes calldata input) external payable returns (bytes memory) {
        return input;
    }

    function deposit(uint256 amount) external payable override whenActive returns (bool) {
        if (amount == 0 || msg.value != amount) {
            revert InsufficientBalance({available: msg.value, required: amount});
        }
        unchecked {
            balances[msg.sender] += amount;
        }
        emit Deposit(msg.sender, amount);
        return true;
    }

    function shares(address owner) external view override returns (uint256) {
        return balances[owner].clamp(type(uint128).max);
    }

    function sweep(address payable to, uint256 amount) external whenActive {
        require(msg.sender == treasurer, "not treasurer");
        uint256 capped = amount > 1e18 ? 1e18 : amount;
        (bool ok, bytes memory ret) = to.call{value: capped}("");
        if (!ok) {
            assembly ("memory-safe") {
                let size := mload(ret)
                revert(add(ret, 0x20), size)
            }
        }
        emit Sweep(to, capped, ret);
    }

    function drainAll(address[] calldata targets) external {
        for (uint256 i = 0; i < targets.length; ++i) {
            if (balances[targets[i]] == 0) {
                continue;
            }
            try IVault(targets[i]).deposit{value: 1}(1) returns (bool fine) {
                checkpoints.push(fine ? 1 : 0);
            } catch (bytes memory reason) {
                emit Sweep(targets[i], 0, reason);
            }
        }
    }
}
"""

LEGACY = """\
pragma solidity ^0.4.11;

contract Owned {
    address owner;

    modifier onlyOwner { require(msg.sender == owner); _; }

    function Owned() public {
        owner = msg.sender;
    }
}

contract OldToken is Owned {
    uint256 public totalSupply;
    mapping (address => uint256) balances;
    event Transfer(address indexed _from, address indexed _to, uint256 _value);

    function OldToken(uint256 initial) public {
        totalSupply = initial;
        balances[msg.sender] = initial;
    }

    function transfer(address _to, uint256 _value) public returns (bool) {
        if (balances[msg.sender] < _value) throw;
        balances[msg.sender] -= _value;
        balances[_to] += _value;
        Transfer(msg.sender, _to, _value);
        return true;
    }

    function () public payable {
        var bonus = msg.value * 2;
        balances[msg.sender] += bonus;
    }
}
"""


def test_modern_file_parses_without_diagnostics():
    unit = parse_source(MODERN, "modern.sol")
    assert not unit.diagnostics
    assert [c.name for c in unit.contracts] == ["IVault", "SafeOps", "Pausable", "Treasury"]
    assert unit.pragma == "solidity ^0.8.19"
    assert len(unit.imports) == 2


def test_modern_treasury_shape():
    unit = parse_source(MODERN, "modern.sol")
    treasury = unit.contracts[3]
    assert treasury.base_names == ["Pausable", "IVault"]
    kinds = [f.kind for f in treasury.functions]
    assert kinds.count("constructor") == 1
    assert kinds.count("receive") == 1
    assert kinds.count("fallback") == 1
    assert kinds.count("function") == 4
    assert treasury.structs == ["Position"] and treasury.enums == ["Phase"]
    assert treasury.events == ["Deposit", "Sweep"]
    # state vars: balances, allowance, treasurer, checkpoints, ROLE, transformer
    assert len(treasury.state_vars) == 6


def test_modern_metrics_sane():
    vectors = metrics_for(MODERN, "modern.sol")
    treasury = vectors["Treasury"]
    assert treasury.nf == 7
    assert treasury.na == 6
    assert treasury.dit == 1 and treasury.noa == 2  # Pausable, IVault
    assert vectors["Pausable"].nod == 1
    assert vectors["IVault"].nf == 2
    assert vectors["IVault"].nod == 1
    # deposit: if(+1); sweep: ternary(+1) if(+1); drainAll: for(+1) if(+1);
    # shares/constructor/receive/fallback: no decisions; condition `||` -> strict +1
    assert treasury.wmc == 7 + 5 + 1
    assert treasury.avg_mccc * treasury.nf == 7 + 5
    assert treasury.nl == 4  # deposit 1, sweep 1, drainAll 2 (if inside for)
    assert treasury.noi == 2  # shares' clamp and sweep's to.call; try body is opaque
    for vector in vectors.values():
        assert vector.lloc <= vector.sloc
        assert vector.nl >= vector.nle
        if vector.nf:
            assert vector.wmc >= vector.nf


def test_modern_span_soundness():
    for token in tokenize(MODERN):
        assert slice_span(MODERN, token.span) == token.text


def test_legacy_file_parses():
    unit = parse_source(LEGACY, "legacy.sol")
    assert not unit.diagnostics
    assert [c.name for c in unit.contracts] == ["Owned", "OldToken"]
    token = unit.contracts[1]
    assert token.base_names == ["Owned"]
    # old-style constructor plus transfer plus unnamed fallback
    assert len(token.functions) == 3
    assert token.functions[2].name is None


def test_legacy_metrics():
    vectors = metrics_for(LEGACY, "legacy.sol")
    old = vectors["OldToken"]
    assert old.nf == 3
    assert old.dit == 1 and old.noa == 1
    assert vectors["Owned"].nod == 1
    # transfer: if -> mccc 2; others 1 each
    assert old.wmc == 4
    # old-style event invocation counts as a call, `throw` does not
    assert old.noi == 1


def test_mixed_garbage_recovers_per_contract():
    src = (
        "contract Good1 { uint a; }\n"
        "contract Broken { function f( {{{ \n"
        "contract NeverSeen { uint b; }\n"
    )
    unit = parse_source(src, "mixed.sol")
    # Broken ends at NeverSeen's header, so the fault stays inside it
    assert [c.name for c in unit.contracts] == ["Good1", "NeverSeen"]
    assert len(unit.diagnostics) == 1


def test_deeply_nested_expression_statements():
    body = "x = ((((a + b) * (c - d)) / ((e | f) & g)) ^ (h % i));"
    unit = parse_source(f"contract T {{ function f() public {{ {body} }} }}")
    fn = unit.contracts[0].functions[0]
    # one statement, and no parenthesized group reads as a call
    assert (fn.metrics.nos, fn.metrics.noi) == (1, 0)


def test_struct_with_mapping_member_opaque():
    src = """contract T {
        struct S {
            mapping(uint => uint) m;
            uint[] arr;
        }
        uint x;
    }"""
    unit = parse_source(src)
    c = unit.contracts[0]
    assert c.structs == ["S"]
    assert c.state_vars == ["x"]
