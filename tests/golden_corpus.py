"""Hand-counted golden corpus: Solidity snippets with exact metric vectors.

Each expected vector was counted manually from the source text following
the documented counting rules, in canonical order:

    sloc lloc cloc nf wmc nl nle numpar nos dit noa nod cbo na noi
    avg_mccc avg_nl avg_nle avg_numpar avg_nos avg_noi
"""

from __future__ import annotations

# name -> (source, {contract_name: expected_vector})
GOLDEN: dict[str, tuple[str, dict[str, list]]] = {}


def _add(name: str, source: str, expected: dict[str, list]) -> None:
    GOLDEN[name] = (source, expected)


_add(
    "empty_contract",
    "contract Empty {}",
    {"Empty": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
)

_add(
    "state_var_and_branch",
    """contract Calc {
    uint x;
    function f(uint a, uint b) public returns (uint) {
        if (a > b) {
            return a;
        }
        return b;
    }
}""",
    {"Calc": [9, 9, 0, 1, 2, 1, 1, 2, 4, 0, 0, 0, 0, 1, 0, 2.0, 1.0, 1.0, 2.0, 3.0, 0.0]},
)

_add(
    "nested_ifs",
    """contract Nested {
    function deep(uint a) public pure returns (uint) {
        if (a > 0) {
            if (a > 1) {
                if (a > 2) {
                    return 3;
                }
            }
        }
        return 0;
    }
}""",
    {"Nested": [12, 12, 0, 1, 4, 3, 3, 1, 5, 0, 0, 0, 0, 0, 0, 4.0, 3.0, 3.0, 1.0, 5.0, 0.0]},
)

_add(
    "else_if_chain",
    """contract Chain {
    function pick(uint a) public pure returns (uint) {
        if (a == 1) {
            return 1;
        } else if (a == 2) {
            return 2;
        } else {
            return 3;
        }
    }
}""",
    {"Chain": [11, 11, 0, 1, 3, 1, 1, 1, 5, 0, 0, 0, 0, 0, 0, 3.0, 1.0, 1.0, 1.0, 5.0, 0.0]},
)

_add(
    "loops",
    """contract Loops {
    function scan(uint n) public pure returns (uint) {
        uint acc = 0;
        for (uint i = 0; i < n; i++) {
            while (acc < 100) {
                acc += i;
            }
        }
        do {
            acc--;
        } while (acc > 10);
        return acc;
    }
}""",
    {"Loops": [14, 14, 0, 1, 4, 2, 0, 1, 7, 0, 0, 0, 0, 0, 0, 4.0, 2.0, 0.0, 1.0, 7.0, 0.0]},
)

_add(
    "strict_logical_operators",
    """contract Strict {
    function gate(bool a, bool b, bool c) public pure returns (bool) {
        if (a && b || c) {
            return true;
        }
        return false;
    }
}""",
    {"Strict": [8, 8, 0, 1, 4, 1, 1, 3, 3, 0, 0, 0, 0, 0, 0, 2.0, 1.0, 1.0, 3.0, 3.0, 0.0]},
)

_add(
    "ternary",
    """contract Ternary {
    function max(uint a, uint b) public pure returns (uint) {
        return a > b ? a : b;
    }
}""",
    {"Ternary": [5, 5, 0, 1, 2, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 2.0, 0.0, 0.0, 2.0, 1.0, 0.0]},
)

_add(
    "calls_and_guards",
    """contract Caller {
    Registry registry;
    function ping(address target) public returns (bool) {
        require(target != address(0), "bad target");
        registry.record(target);
        emit Pinged(target);
        bool ok = helper(target) && helper(target);
        return ok;
    }
    function helper(address t) internal returns (bool) {
        return t != address(0);
    }
    event Pinged(address who);
}""",
    {"Caller": [14, 14, 0, 2, 2, 0, 0, 2, 8, 0, 0, 0, 1, 1, 3, 1.0, 0.0, 0.0, 1.0, 3.0, 1.5]},
)

_add(
    "inheritance_chain_depth_3",
    """contract Root {}
contract Mid is Root {}
contract Leaf is Mid {}
contract Tip is Leaf {}""",
    {
        "Root": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Mid": [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Leaf": [1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Tip": [1, 1, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
)

_add(
    "diamond_inheritance",
    """contract Base {}
contract Left is Base {}
contract Right is Base {}
contract Bottom is Left, Right {}""",
    {
        "Base": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Left": [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Right": [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "Bottom": [1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 2, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
)

_add(
    "mixed_comment_lines",
    """contract Documented {
    // counter state
    uint count; // current value
    /* multi
       line note */
    function bump() public {
        count += 1; // increment
    }
}""",
    {"Documented": [9, 6, 5, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]},
)

_add(
    "interface_bodyless",
    """interface IToken {
    function totalSupply() external view returns (uint256);
    function transfer(address to, uint256 amount) external returns (bool);
}""",
    {"IToken": [4, 4, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
)

_add(
    "multi_function_vault",
    """contract Vault {
    address owner;
    uint balance;
    modifier onlyOwner() {
        require(msg.sender == owner);
        _;
    }
    constructor() {
        owner = msg.sender;
    }
    receive() external payable {
        balance += msg.value;
    }
    function drain(address payable to) public onlyOwner {
        to.transfer(balance);
        balance = 0;
    }
}""",
    {
        "Vault": [
            18, 18, 0, 3, 3, 0, 0, 1, 6, 0, 0, 0, 0, 2, 1,
            1.0, 0.0, 0.0, 1 / 3, 4 / 3, 1 / 3,
        ]
    },
)

_add(
    "unresolved_base",
    """contract Bridge is IExternal {
    function relay() public pure returns (bool) {
        return true;
    }
}""",
    {"Bridge": [5, 5, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]},
)

_add(
    "declarations_and_new",
    """contract Factory {
    event Created(address at);
    struct Record {
        address addr;
    }
    enum Phase { Init, Run }
    Token token;
    function make() public returns (address) {
        Token t = new Token();
        emit Created(address(t));
        return address(t);
    }
}""",
    {"Factory": [13, 13, 0, 1, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 1, 1.0, 0.0, 0.0, 0.0, 3.0, 1.0]},
)

_add(
    "library_clamp",
    """library MathLib {
    function clamp(uint v, uint hi) internal pure returns (uint) {
        if (v > hi) {
            return hi;
        }
        return v;
    }
}""",
    {"MathLib": [8, 8, 0, 1, 2, 1, 1, 2, 3, 0, 0, 0, 0, 0, 0, 2.0, 1.0, 1.0, 2.0, 3.0, 0.0]},
)


# Hand-counted cases kept out of GOLDEN: perfbench/corpus_gen.py builds its
# corpora from GOLDEN, and tests/test_parse_pin.py draws its seeded mutations
# from it, so a new entry there would change both. Same vector order.
NAMED_TYPE_GOLDEN: dict[str, tuple[str, dict[str, list]]] = {
    # Named mapping keys and values (Solidity 0.8.18) name no type: CBO
    # counts Token alone, not user, bal, id, tok, who or amount.
    "named_mapping_fields": (
        """contract Ledger {
    mapping(address user => uint256 bal) public balances;
    mapping(address => mapping(uint id => Token tok)) holdings;
    function credit(mapping(address who => uint amount) storage book, address to) internal {
        book[to] += 1;
    }
}""",
        {"Ledger": [7, 7, 0, 1, 1, 0, 0, 2, 3, 0, 0, 0, 1, 2, 0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0]},
    ),
    # A function type's parameter and return names name no type either:
    # CBO counts Receipt and Registry, not amount, to, r or ok.
    "function_type_parameters": (
        """contract Hooks {
    function(uint256 amount) external returns (uint) callback;
    function(address to, Receipt memory r) internal pure returns (bool ok) check;
    Registry registry;
}""",
        {"Hooks": [5, 5, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 3, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
    ),
}


# Solidity 0.8.x syntax, kept out of GOLDEN for the same reason.
SOLIDITY_08_GOLDEN: dict[str, tuple[str, dict[str, list]]] = {
    # A storage layout specifier (0.8.29) before or after the base list: its
    # slot expression names no type, so Vault's CBO counts Base and Token and
    # Store's counts Base alone.
    "storage_layout_specifier": (
        """contract Base {
    uint a;
}
contract Vault is Base layout at 0x1234 {
    Token token;
    function put(uint amount) public {
        if (amount > 0) {
            token.transfer(amount);
        }
    }
}
contract Store layout at 2**64 + 7 is Base {
    uint b;
}""",
        {
            "Base": [3, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "Vault": [8, 8, 0, 1, 2, 1, 1, 1, 3, 1, 1, 0, 2, 1, 1, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0],
            "Store": [3, 3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        },
    ),
}
